"""Weighted kernels: closed form vs series, transformation, round trip."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from discforms import kernels
from discforms.domain import dirichlet_domain
from discforms.errors import BoundaryPoint
from discforms.geometry import den_power, disc_points
from discforms.group import enumerate_ball, preset_genus2_octagon
from discforms.kernels import (
    cm_constant, kernel_transformation_check, relative_poincare,
    reproducing_check, roundtrip_check, series_rounding_bound,
    weighted_kernel, weighted_kernel_series,
)
from discforms.series import SeedFunction, _polar_sum, poincare_values

from conftest import random_disc_points

ONE = SeedFunction.poly([1.0])


def test_kernel_at_center_is_constant(rng):
    zs = random_disc_points(rng, 20)
    for m in (2, 3, 4):
        vals = weighted_kernel(m, zs, 0.0)
        assert np.max(np.abs(vals - (2 * m - 1) / math.pi ** m)) < 1e-14


# A draw on which a fixed 1e-10 relative bound failed at m = 6 (2.07e-10):
# |K_6| is 6.7e-5 there while the series terms sum to 8e6 times that.
_CANCELLING_PAIR = (-0.18139475501010804 - 0.7555554102308588j,
                    0.5431171053775666 + 0.5340929268899366j)


def test_closed_form_vs_series(rng):
    zs = np.append(random_disc_points(rng, 50), _CANCELLING_PAIR[0])
    ws = np.append(random_disc_points(rng, 50), _CANCELLING_PAIR[1])
    for m in (2, 3, 4, 6):
        cf = weighted_kernel(m, zs, ws)
        se = weighted_kernel_series(m, zs, ws)
        tol = series_rounding_bound(m, zs, ws, cf)
        assert np.all(np.abs(cf - se) <= tol)
        # not vacuous: still 5 digits where the series cancels worst, and
        # 11 at the typical point
        assert np.max(tol / np.abs(cf)) < 1e-5
        assert np.median(tol / np.abs(cf)) < 1e-11
    assert weighted_kernel_series(2, 0.0, 0.0) \
        == pytest.approx(weighted_kernel(2, 0.0, 0.0), rel=1e-14)


def test_hermitian_and_psd(rng):
    zs = random_disc_points(rng, 5)
    for m in (2, 4):
        gram = weighted_kernel(m, zs[:, None], zs[None, :])
        assert np.max(np.abs(gram - gram.conj().T)) < 1e-12
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-10


def test_transformation_law(octagon):
    rep = kernel_transformation_check(octagon, 4, n_samples=100)
    assert rep.max_residual < 1e-10
    # inverse elements appear in the sweep with the same residual scale
    assert len(rep.per_element) == 16


def test_transformation_identity():
    from discforms.group import FuchsianGroup, GroupElement
    g = FuchsianGroup([GroupElement(1.0 + 0.0j, 0.0j)], [], name="id")
    rep = kernel_transformation_check(g, 3, n_samples=10)
    assert rep.max_residual < 1e-14


def test_reproducing(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(kernels, "REPRODUCING_PROBE", (ONE, 0.0))
        rep = reproducing_check(4)
        assert rep.expected == 1.0
        assert rep.rel_error < 5e-3
    rep = reproducing_check(4)      # h = z^2 at w = 0.3
    assert rep.expected == pytest.approx(0.09)
    assert rep.rel_error < 5e-3
    assert rep.rel_error < rep.rel_error_half_grid


@pytest.mark.parametrize("m", [2, 4])
def test_reproducing_radial_factor_per_radius(m):
    # K(z,z)^(1-m) is taken once per radius; per node, from |z|, the
    # integral agrees to rounding
    h, w = kernels.REPRODUCING_PROBE

    def per_node(z, wt, r):
        return (weighted_kernel(m, z, w) * np.conj(h(z))
                * (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** (m - 1) * wt)
    want = complex(_polar_sum(800, 512, per_node, complex))
    assert abs(reproducing_check(m).value - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_cm_constant_radial_factor_per_radius(m):
    # K(z,z)^(m/2-1) once per radius and |K_m| through den_power; per
    # node, from |z| and a real power, A(w) agrees to rounding
    c = (2 * m - 1) / math.pi ** m
    for w, got in zip(kernels.CM_PROBES, cm_constant(m).values):
        def per_node(z, wt, r):
            d = 1.0 - z * np.conj(w)
            return (c * (d.real ** 2 + d.imag ** 2) ** -m
                    * (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** (m / 2 - 1)
                    * wt)
        want = ((math.pi * (1.0 - abs(w) ** 2) ** 2) ** (m / 2)
                * _polar_sum(1600, 512, per_node, float))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cm_constant_radial_oracle(monkeypatch):
    monkeypatch.setattr(kernels, "CM_PROBES", (0.0,))
    for m in (3, 4):
        rep = cm_constant(m)
        # radial 1-D oracle at w = 0: |K_m(z,0)| is constant
        integrand = lambda r: (2 * math.pi * r * (2 * m - 1) / math.pi ** m
                               * (math.pi * (1 - r * r) ** 2) ** (m / 2 - 1))
        radial, _ = quad(integrand, 0.0, 1.0)
        oracle = math.pi ** (m / 2.0) * radial
        assert rep.values[0] == pytest.approx(oracle, rel=1e-5)
        assert oracle == pytest.approx(rep.analytic, rel=1e-9)


def test_cm_constancy(octagon, monkeypatch):
    rep = cm_constant(4)
    assert rep.spread < 0.01
    g0 = octagon.generators[0].apply(0.0j)
    monkeypatch.setattr(kernels, "CM_PROBES", (0.0, g0))
    rep2 = cm_constant(4)
    assert rep2.values[1] == pytest.approx(rep2.values[0], rel=1e-3)


@pytest.fixture(scope="module")
def oct_domain(octagon):
    return dirichlet_domain(octagon, spacing=0.02)


def test_relative_poincare_linear(octagon, oct_domain):
    h0 = np.zeros(len(oct_domain.nodes), dtype=complex)
    f0, tail0 = relative_poincare(oct_domain, h0, 4)
    assert tail0 == 0.0 and f0(0.1 + 0.1j) == 0.0
    f0, tail0 = relative_poincare(oct_domain, h0, 6)
    assert tail0 == 0.0 and np.all(f0(np.array([0.0, 0.99j])) == 0.0)
    h1 = poincare_values(octagon, ONE, 4, oct_domain.nodes, 6.0)
    h2 = poincare_values(octagon, SeedFunction.poly([0, 1.0]), 4,
                         oct_domain.nodes, 6.0)
    za = np.array([0.1 + 0.1j, -0.2j])
    lin = relative_poincare(oct_domain, h1 + 2.0 * h2, 4)[0](za)
    sep = relative_poincare(oct_domain, h1, 4)[0](za) \
        + 2.0 * relative_poincare(oct_domain, h2, 4)[0](za)
    assert np.max(np.abs(lin - sep)) < 1e-12


# --- the moment series against the direct sum over the nodes -------------

U = 2.0 ** -53   # unit roundoff


def _direct_relative_poincare(domain, h_values, m, z):
    """Sum of K_m(z, w) dens_w over the nodes, by the closed form.

    The dense evaluation that the moment series replaced, kept as its
    oracle; rows of z are taken in chunks of about 2^16 pairs.
    """
    z = np.asarray(z, dtype=complex)
    nodes = domain.nodes
    dens = (h_values * domain.weights
            * (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** (m - 1))
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    chunk = max(1, 2 ** 16 // len(nodes))
    for i in range(0, len(flat), chunk):
        out[i:i + chunk] = np.sum(
            weighted_kernel(m, flat[i:i + chunk, None], nodes[None, :])
            * dens[None, :], axis=1)
    return out.reshape(z.shape), dens


def _tail_after(m, t, n):
    """The module's bound on sum_{k>n} a_k t^k, from exact binomials."""
    ratio = t * (2 * m + n + 1) / (n + 2)
    if ratio >= 1.0:
        return math.inf
    a = (2 * m - 1) / math.pi ** m * math.comb(2 * m + n, n + 1)
    return a * t ** (n + 1) / (1.0 - ratio)


def _order_of(m, t, tail_factor):
    """The order N whose tail bound is tail_factor; the bound falls
    strictly with N, so at most one order matches."""
    n = 0
    while _tail_after(m, t, n) > tail_factor * (1 + 1e-9):
        n += 1
    assert _tail_after(m, t, n) == pytest.approx(tail_factor, rel=1e-9)
    return n


def _moment_rounding_bound(m, n_order, n_nodes, zs, wmax, s_abs):
    """Bound on |moment series - direct sum| from rounding, first order in U.

    Both sides start from the same computed densities.  With
    t = |z| max|w|, B = S (2m-1)/pi^m (1-t)^(-2m) bounds both
    sum_w |dens_w K_m(z, w)| and sum_k a_k |M_k| |z|^k.  Direct sum: the
    closed form is within (4m t/(1-t) + 20) U of K_m (see
    kernels.series_rounding_bound), the product with dens adds 3 U and the
    pairwise sum (log2 n + 1) U.  Moments: conj(w)^k after k complex
    products is within 3k U, the pairwise sum adds log2 n + 1, a_k after
    2k + 3 roundings and b_k = a_k M_k one more, so b_k is within
    (5k + log2 n + 5) U a_k sum_w |dens_w| |w|^k.  Horner's rule adds at
    most 4N U B (a complex product and a sum per step).
    """
    t = np.abs(zs) * wmax
    big_b = s_abs * (2 * m - 1) / math.pi ** m * (1.0 - t) ** (-2 * m)
    lg = math.log2(n_nodes)
    return U * big_b * (9 * n_order + 4 * m * t / (1.0 - t) + 2 * lg + 31)


def _check_against_direct(domain, h, m, zs):
    seed, tail = relative_poincare(domain, h, m)
    f = seed(zs)
    direct, dens = _direct_relative_poincare(domain, h, m, zs)
    wmax = float(np.max(np.abs(domain.nodes)))
    s_abs = float(np.sum(np.abs(dens)))
    # the cut is certified on the whole disc: t = max|w| bounds |z| max|w|
    n_order = _order_of(m, wmax, tail / s_abs)
    assert len(seed.coeffs) == n_order + 1
    # N is the least certified order: the bound one order lower misses
    goal = U * (2 * m - 1) / math.pi ** m * (1.0 - wmax) ** (-2 * m)
    assert _tail_after(m, wmax, n_order) <= goal
    assert n_order == 0 or _tail_after(m, wmax, n_order - 1) > goal
    rounding = _moment_rounding_bound(m, n_order, len(domain.nodes), zs,
                                      wmax, s_abs)
    assert np.all(np.abs(f - direct) <= tail + rounding)
    # the stated bound is loose; the sums agree far more closely
    assert np.max(np.abs(f - direct)) <= 1e-13 * np.max(np.abs(direct))
    return n_order


@pytest.mark.parametrize("radius", [8.0, 10.0])
def test_moment_series_matches_direct_sum_on_orbits(octagon, radius):
    dom = dirichlet_domain(octagon, spacing=0.04)
    orbit = enumerate_ball(octagon, 0.0j, radius).terms(0.1 + 0.1j)[0]
    for m in (2, 3, 4, 6):
        h = poincare_values(octagon, SeedFunction.poly([1.0, 0.5j]), m,
                            dom.nodes, 6.0)
        # orbit points reach |z| = 0.9999, so many orders are needed
        assert _check_against_direct(dom, h, m, orbit) > 100


def test_moment_series_matches_direct_sum_on_the_whole_disc(trivial):
    # the trivial group's nodes reach |w| = 1 - 1e-4, so the disc-wide cut
    # keeps tens of thousands of orders; its orbits are the samples alone
    dom = dirichlet_domain(trivial, spacing=0.04)
    assert np.max(np.abs(dom.nodes)) > 0.99
    zs = random_disc_points(np.random.default_rng(5), 10, 0.3)
    for m in (2, 4):
        h = poincare_values(trivial, SeedFunction.poly([1.0, 0.5j]), m,
                            dom.nodes, 2.0)
        assert _check_against_direct(dom, h, m, zs) > 10_000


def test_tail_bound_is_small_at_the_roundtrip_defaults(octagon, oct_domain):
    # cli roundtrip at its defaults: m = 4, R = 8, spacing 0.02, seed 0;
    # the truncation is five orders below the round trip's own error
    samples = disc_points(np.random.default_rng(0), 10, 0.3)
    h = poincare_values(octagon, ONE, 4, oct_domain.nodes, 8.0)
    orbit = enumerate_ball(octagon, 0.0j, 8.0).terms(samples)[0]
    f, tail = relative_poincare(oct_domain, h, 4)
    assert 0.0 < tail < 1e-10 * np.max(np.abs(f(orbit)))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_tail_bound_dominates_later_orders_near_the_boundary(octagon,
                                                             oct_domain, m):
    # f_N + (orders N+1 .. N+40) at |z| = 0.999: the added orders, summed
    # from exact binomials and moments by fsum, stay below tail_bound
    h = poincare_values(octagon, SeedFunction.poly([1.0, 0.5j]), m,
                        oct_domain.nodes, 6.0)
    f, tail = relative_poincare(oct_domain, h, m)
    nodes = oct_domain.nodes
    dens = (h * oct_domain.weights
            * (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** (m - 1))
    z = 0.999 * np.exp(2j * np.pi * np.arange(16) / 16)
    n = len(f.coeffs)
    later = np.zeros(z.shape, dtype=complex)
    for k in range(n, n + 40):
        a_k = (2 * m - 1) / math.pi ** m * math.comb(2 * m - 1 + k, k)
        moment = complex(math.fsum((dens * np.conj(nodes) ** k).real),
                         math.fsum((dens * np.conj(nodes) ** k).imag))
        later += a_k * moment * z ** k
    assert np.all(np.abs(later) <= tail) and np.all(later != 0.0)


@pytest.mark.parametrize("bad", [np.nan, 1.0, 1.5j, complex(0.3, np.nan)])
def test_relative_poincare_rejects_points_off_the_disc(octagon, oct_domain,
                                                      bad):
    # f is a seed, defined everywhere; the round trip's samples are checked
    with pytest.raises(BoundaryPoint):
        roundtrip_check(octagon, ONE, 4, [0.1, bad], spacing=0.02)
    h = np.ones(len(oct_domain.nodes))
    nodes = oct_domain.nodes.copy()
    nodes[7] = bad
    with pytest.raises(BoundaryPoint):
        relative_poincare(replace(oct_domain, nodes=nodes), h, 4)


def test_roundtrip_trivial(trivial):
    rep = roundtrip_check(trivial, ONE, 4, [0.1 + 0.1j, -0.2, 0.3j],
                          radius=2.0, spacing=0.02)
    assert rep.max_rel_error < 1e-6


def test_roundtrip_preset(octagon):
    pts = [0.1 + 0.1j, -0.15 + 0.05j, 0.2j]
    coarse = roundtrip_check(octagon, ONE, 4, pts, radius=8.0, spacing=0.04)
    fine = roundtrip_check(octagon, ONE, 4, pts, radius=8.0, spacing=0.02)
    assert fine.max_rel_error < 0.05
    assert fine.max_rel_error <= coarse.max_rel_error


def test_roundtrip_resum_multiplies_as_written(monkeypatch):
    # the re-sum is poincare_values of the returned seed: f(gamma z) j^m
    # multiplied as written, a swapped complex product would move last
    # bits, and each column summed in ball order; at radius 11.5 the ball
    # holds 16,384 or more terms
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]
    real = kernels.relative_poincare
    monkeypatch.setattr(kernels, "relative_poincare", spy)
    g = preset_genus2_octagon()
    pts = np.array([0.1 + 0.1j, -0.15 + 0.05j, 0.2j])
    rep = roundtrip_check(g, ONE, 4, pts, spacing=0.2, radius=11.5)
    ball = enumerate_ball(g, 0.0j, 11.5)
    assert len(ball) >= 16_384
    (f, _), = seen
    hz = poincare_values(g, ONE, 4, pts, 11.5)
    gz, den = ball.terms(pts)
    want = np.sum(np.multiply(f(gz), den_power(den, 8)), axis=0)
    assert rep.rel_errors == (np.abs(want - hz) / np.abs(hz)).tolist()
