"""Acceptance suite: the ten desk-scale property checks, one test each.

Each test prints a single PASS line with its headline numbers so the run
log doubles as a certificate summary.
"""

import math
import time

import numpy as np
import pytest

from discforms import cli
from discforms.domain import dirichlet_domain
from discforms.embedding import very_ampleness_scan
from discforms.geometry import in_convex_polygon
from discforms.group import enumerate_ball
from discforms.kernels import (
    cm_constant, kernel_transformation_check, reproducing_check,
    roundtrip_check,
)
from discforms.seshadri import (
    ampleness_thresholds, cutoff_a, density, injectivity_radius,
    quasi_psh_check, seshadri_lower_bound,
)
from discforms.series import (
    SeedFunction, automorphy_residual, lemma22_check, weight_sum,
)

from conftest import gap_to_identity, random_disc_points, word_product

ONE = SeedFunction.poly([1.0])
SEEDS = [ONE, SeedFunction.poly([0.0, 1.0]), SeedFunction.poly([0, 0, 1.0])]


@pytest.fixture(scope="module")
def rho0(octagon):
    return injectivity_radius(octagon, 0.0j)


def test_1_group_soundness(octagon, rng):
    t0 = time.time()
    residual = max(gap_to_identity(*word_product(octagon, w))
                   for w in octagon.relators)
    assert residual < 1e-8
    domain = dirichlet_domain(octagon, spacing=0.02)
    assert len(domain.vertices) == 8
    vertex_dist = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)
    ball = enumerate_ball(octagon, 0.0j, 2.0 + 2.0 * vertex_dist + 0.5)
    zs = random_disc_points(rng, 200, r_max=math.tanh(1.0))
    for z in zs:
        orbit = (ball.alphas * z + ball.betas) \
            / (np.conj(ball.betas) * z + np.conj(ball.alphas))
        assert int(np.sum(in_convex_polygon(domain.vertices, orbit))) == 1
    dt = time.time() - t0
    assert dt < 10.0
    print(f"\nPASS 1 group soundness: relator residual {residual:.2e}, "
          f"8-gon, tiling 200/200, {dt:.1f}s")


def test_2_weight_sum_convergence(octagon):
    t0 = time.time()
    big = weight_sum(octagon, 0.0j, 0.0j, 12.0)
    small = weight_sum(octagon, 0.0j, 0.0j, 10.0)
    assert abs(big.value - small.value) <= small.tail_estimate
    partials = [weight_sum(octagon, 0.0j, 0.0j, r).value
                for r in (4.0, 6.0, 8.0, 10.0, 12.0)]
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    dt = time.time() - t0
    assert dt < 60.0
    print(f"\nPASS 2 convergence: |S(12)-S(10)| = "
          f"{abs(big.value - small.value):.2e} <= tail "
          f"{small.tail_estimate:.2e}, monotone, {dt:.1f}s")


def test_3_automorphy(octagon, rng):
    t0 = time.time()
    worst = 0.0
    for m in (3, 4, 6):
        for f in SEEDS:
            for _ in range(20):
                z = complex(random_disc_points(rng, 1, r_max=0.5)[0])
                g = octagon.generators[int(rng.integers(8))]
                res, pz, pgz = automorphy_residual(octagon, f, m, g, z,
                                                   10.0)
                bound = 2.0 * max(pz.tail_estimate, pgz.tail_estimate)
                assert res <= bound
                worst = max(worst, res / max(bound, 1e-300))
    dt = time.time() - t0
    assert dt < 120.0
    print(f"\nPASS 3 automorphy: worst residual/bound {worst:.3f} "
          f"over 180 samples, {dt:.1f}s")


def test_4_lemma22_matrix(octagon):
    gap = 0.0
    for m in (3, 4, 6):
        for f in SEEDS:
            rep = lemma22_check(octagon, f, m, radius=6.0)
            assert rep.lhs <= rep.rhs * 1.01 + rep.rhs_quadrature_error
            assert rep.unfolding_rel_gap < 0.01
            partial = [v for _, v in rep.partial_lhs]
            assert all(a <= b + 1e-15
                       for a, b in zip(partial, partial[1:]))
            gap = max(gap, rep.unfolding_rel_gap)
    print(f"\nPASS 4 lemma22: 9 seed/m combos, LHS <= RHS + 1%, "
          f"max unfolding gap {gap:.2e}")


def test_5_kernel_suite(octagon):
    tr = kernel_transformation_check(octagon, 4, n_samples=100)
    assert tr.max_residual < 1e-10
    rp = reproducing_check(4)
    assert rp.rel_error < 5e-3
    assert rp.rel_error < rp.rel_error_half_grid
    cm = cm_constant(4)
    assert len(cm.values) == 5
    assert cm.spread < 0.01
    print(f"\nPASS 5 kernels: transformation {tr.max_residual:.2e}, "
          f"reproducing {rp.rel_error:.2e}, c_m spread {cm.spread:.2e}")


def test_6_roundtrip(octagon, rng):
    pts = random_disc_points(rng, 10, r_max=0.3)
    coarse = roundtrip_check(octagon, ONE, 4, pts, radius=8.0,
                             spacing=0.04)
    fine = roundtrip_check(octagon, ONE, 4, pts, radius=8.0, spacing=0.02)
    assert fine.max_rel_error < 0.05
    assert fine.max_rel_error <= coarse.max_rel_error
    print(f"\nPASS 6 roundtrip: rel error {fine.max_rel_error:.2e} "
          f"(coarse {coarse.max_rel_error:.2e}) at 10 points")


def test_7_cutoff(octagon, rho0):
    v0, d0 = cutoff_a(0.0)
    assert v0 == 0.0 and d0 == 0.0
    assert density(octagon, 0.0j, rho0).value == 1.0 / rho0 ** 2
    worst = 0
    for s in (1.0, 1.5, 2.0):
        rep = quasi_psh_check(octagon, 0.0j, s * rho0)
        assert rep.n_violations == 0
        worst = max(worst, rep.n_violations)
    print(f"\nPASS 7 cutoff: a(0)=a'(0)=0, D(rho0,0)=1/rho0^2 exact, "
          f"quasi-psh 0 violations at 3 radii")


def test_8_seshadri_consistency(octagon, rho0):
    rep = seshadri_lower_bound(octagon, 0.0j)
    at_rho = 1.0 / (2.0 * density(octagon, 0.0j, rho0).value)
    assert abs(rep.bound_inj - at_rho) < 1e-10
    assert ampleness_thresholds(2.0, 1) == {"demailly": 3, "main": 4}
    assert ampleness_thresholds(0.5, 1) == {"demailly": 6, "main": 7}
    assert ampleness_thresholds(2.0, 2) == {"demailly": 4, "main": 5}
    print(f"\nPASS 8 seshadri: |rho^2/2 - 1/(2D)| = "
          f"{abs(rep.bound_inj - at_rho):.2e}, thresholds hand-checked")


def test_9_separation_scan(octagon):
    t0 = time.time()
    eps = seshadri_lower_bound(octagon, 0.0j).epsilon_lower
    m_star = ampleness_thresholds(eps, 1)["main"]
    rep = very_ampleness_scan(octagon, m_star, d=6, radius=8.0,
                              n_samples=100)
    assert rep.jet_pass_rate == 1.0
    assert rep.point_pass_rate == 1.0
    dt = time.time() - t0
    assert dt < 600.0
    print(f"\nPASS 9 separation: m* = {m_star} (eps = {eps:.4f}), "
          f"100% jet/point, min margins {rep.min_jet_ratio:.2e}/"
          f"{rep.min_point_ratio:.2e}, {dt:.0f}s")


def test_10_determinism(tmp_path):
    outputs = []
    for cmd in (["weight-sum", "--radius", "6"],
                ["thresholds", "--epsilon", "2", "--n", "1"],
                ["density", "--r", "1.5"]):
        path = tmp_path / "r.json"
        argv = cmd + ["--out", str(path)]
        assert cli.main(argv) == 0
        first = path.read_bytes()
        assert cli.main(argv) == 0
        assert path.read_bytes() == first
        outputs.append(len(first))
    print(f"\nPASS 10 determinism: 3 commands byte-identical on re-run "
          f"({outputs} bytes)")
