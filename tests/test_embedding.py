"""Section bases and the jet/point separation certificates."""

import numpy as np
import pytest

from discforms import embedding
from discforms.embedding import (
    EQUIV_TOL, RANK_TOL, eval_sections, sample_fundamental_domain,
    very_ampleness_scan,
)
from discforms.errors import BoundaryPoint
from discforms.geometry import den_power, distance, mobius_den
from discforms.group import enumerate_ball, orbit_counts, orbit_pairs

from conftest import klein_excess, random_disc_points


def _ratios(matrices):
    """Smallest over largest singular value, one SVD per 2 x (d+1) matrix."""
    out = []
    for mat in matrices:
        s = np.linalg.svd(mat, compute_uv=False)
        out.append(float(s[-1] / s[0]) if s[0] > 0 else 0.0)
    return out


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_eval_sections_rejects_points_off_the_disc(octagon, bad):
    # checked on entry, as every series entry point checks its points
    with pytest.raises(BoundaryPoint, match="is not inside"):
        eval_sections(octagon, 4, 2, [bad], 6.0)
    with pytest.raises(BoundaryPoint, match="is not inside"):
        eval_sections(octagon, 4, 2, [0.1, bad], 6.0)


def test_trivial_basis_is_monomials(trivial):
    pts = np.array([0.2 + 0.1j, -0.3j])
    vals, ders = eval_sections(trivial, 4, 3, pts, 2.0)
    expect = np.array([pts ** k for k in range(4)])
    assert np.max(np.abs(vals - expect)) < 1e-15
    dexpect = np.array([k * pts ** max(k - 1, 0) * (k > 0)
                        for k in range(4)])
    assert np.max(np.abs(ders - dexpect)) < 1e-14


def test_derivative_matches_finite_differences(octagon):
    pts = np.array([0.1 + 0.1j, -0.2 + 0.05j, 0.3j])
    _, ders = eval_sections(octagon, 4, 6, pts, 8.0)
    h = 1e-5
    vp, _ = eval_sections(octagon, 4, 6, pts + h, 8.0)
    vm, _ = eval_sections(octagon, 4, 6, pts - h, 8.0)
    fd = (vp - vm) / (2.0 * h)
    assert np.max(np.abs(fd - ders)) < 1e-6


def test_gram_rank_bounded(octagon):
    pts = random_disc_points(np.random.default_rng(0), 40, r_max=0.4)
    vals, _ = eval_sections(octagon, 4, 6, pts, 8.0)
    gram = vals @ vals.conj().T
    assert np.linalg.matrix_rank(gram, tol=1e-10) <= 7


def test_jet_rank_invariant_under_group(octagon):
    x = 0.15 + 0.1j
    pts = np.array([x] + [g.apply(x) for g in octagon.generators[:3]])
    vals, ders = eval_sections(octagon, 4, 6, pts, 8.0)
    passed = [r > RANK_TOL for r in _ratios(np.stack([vals.T, ders.T], 1))]
    assert passed == [passed[0]] * 4


def test_point_separation(trivial, octagon):
    vals, _ = eval_sections(trivial, 4, 3, np.array([0.1, 0.2]), 2.0)
    assert _ratios([vals.T])[0] > RANK_TOL
    g = octagon.generators[0]
    x = 0.2 + 0.05j
    # equivalent points have proportional value columns (automorphy)
    vals, _ = eval_sections(octagon, 4, 6, np.array([x, g.apply(x)]), 8.0)
    cross = np.abs(np.vdot(vals[:, 0], vals[:, 1]))
    norms = np.linalg.norm(vals[:, 0]) * np.linalg.norm(vals[:, 1])
    assert cross / norms > 1.0 - 1e-8


def test_sections_are_automorphic_up_to_the_shell_bound(octagon):
    # P_m(z^k)(g x) j_g(x)^m sums the ball B_R times g, which differs from
    # B_R only in elements with displacement in (R - d_g, R + d_g], d_g =
    # rho(0, g 0); with |z^k| <= 1 each contributes at most |j(x)|^m
    m, radius = 4, 6.0
    xs = np.array([0.1 + 0.1j, -0.2 + 0.05j, 0.3j])
    vals, _ = eval_sections(octagon, m, 6, xs, radius)
    u = 2.0 ** -53
    for g in octagon.generators:
        d_g = float(distance(0.0j, g.apply(0.0j)))
        big = enumerate_ball(octagon, 0.0j, radius + d_g)
        jm = np.abs(den_power(big.terms(xs)[1], 2 * m))
        shell = np.sum(jm[big.displacements > radius - d_g], axis=0)
        # both truncated sums round within len(ball) u sum|terms|
        rounding = 2 * len(big) * u * np.sum(jm, axis=0)
        moved, _ = eval_sections(octagon, m, 6, g.apply(xs), radius)
        pulled = moved * den_power(mobius_den(g.alpha, g.beta, xs), 2 * m)
        assert np.all(np.abs(pulled - vals) <= shell + rounding)
        # not vacuous: the truncation shows, within 50x of the bound
        assert np.max(np.abs(pulled - vals)) > np.max(shell) / 50


def test_table_columns_match_per_point_calls(octagon):
    # the scan's one table: pair columns keep the bits of two-point calls
    # (both sum each column in ball order); a lone point is summed
    # pairwise, so jet columns agree to rounding
    n = 30
    pts = sample_fundamental_domain(octagon, 3 * n, seed=0)
    assert len(enumerate_ball(octagon, 0.0j, 8.0).point_blocks(pts)) > 1
    vals, ders = eval_sections(octagon, 4, 6, pts, 8.0)
    for i in range(n):
        cols = [n + i, 2 * n + i]
        pair = eval_sections(octagon, 4, 6, pts[cols], 8.0)
        assert np.array_equal(pair[0], vals[:, cols])
        assert np.array_equal(pair[1], ders[:, cols])
        one = eval_sections(octagon, 4, 6, pts[i], 8.0)
        for got, want in ((vals[:, i], one[0][:, 0]),
                          (ders[:, i], one[1][:, 0])):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_scan_ratios_are_per_matrix_svds(octagon):
    # the stacked SVDs give each matrix's own singular values, bit for bit
    rep = very_ampleness_scan(octagon, 4, n_samples=20)
    pts = sample_fundamental_domain(octagon, 60, seed=0)
    vals, ders = eval_sections(octagon, 4, 6, pts, 8.0)
    jets = _ratios(np.stack([vals[:, :20].T, ders[:, :20].T], 1))
    pairs = _ratios(np.stack([vals[:, 20:40].T, vals[:, 40:].T], 1))
    assert rep.min_jet_ratio == min(jets)
    assert rep.min_point_ratio == min(pairs)
    mats = np.random.default_rng(1).standard_normal((500, 2, 7, 2)) \
        .view(complex)[..., 0]
    stacked = np.linalg.svd(mats, compute_uv=False)
    assert np.array_equal(stacked, [np.linalg.svd(a, compute_uv=False)
                                    for a in mats])


def test_scan_skips_equivalent_pairs(octagon, monkeypatch):
    # pair 0 is (x, g x), whose value columns are proportional: tested, it
    # would fail with a ratio below RANK_TOL
    real = embedding.sample_fundamental_domain

    def sampler(group, n, seed):
        pts = real(group, n, seed)
        pts[n // 3 * 2] = group.generators[0].apply(pts[n // 3])
        return pts
    monkeypatch.setattr(embedding, "sample_fundamental_domain", sampler)
    pts = sampler(octagon, 30, 0)
    vals, _ = eval_sections(octagon, 4, 6, pts[[10, 20]], 8.0)
    assert _ratios([vals.T])[0] < RANK_TOL
    rep = very_ampleness_scan(octagon, 4, n_samples=10)
    assert rep.point_pass_rate == 1.0 and rep.point_failures == []
    assert rep.min_point_ratio > RANK_TOL


def test_scan_trivial(trivial):
    rep = very_ampleness_scan(trivial, 2, d=2, radius=2.0, n_samples=25)
    assert rep.jet_pass_rate == 1.0
    assert rep.point_pass_rate == 1.0


def test_scan_monotone_in_degree(octagon):
    r3 = very_ampleness_scan(octagon, 4, d=3, radius=7.0, n_samples=20)
    r6 = very_ampleness_scan(octagon, 4, d=6, radius=7.0, n_samples=20)
    assert r6.jet_pass_rate >= r3.jet_pass_rate
    assert r6.point_pass_rate >= r3.point_pass_rate


def test_sampler_stays_in_domain(octagon):
    from discforms.domain import dirichlet_domain
    pts = sample_fundamental_domain(octagon, 50, seed=3)
    dom = dirichlet_domain(octagon, spacing=0.05)
    assert np.all(klein_excess(dom.vertices, pts) <= 1e-9)


@pytest.mark.parametrize("seed", range(16))
def test_pair_query_is_the_per_pair_loop(octagon, seed):
    # the scan tests its pairs in one orbit query with a base point per
    # pair; each pair's orbit points, so its count and kept/skipped
    # boolean, are those of a query of its own.  A third of the pairs are
    # (x, g x), which the scan must skip
    n = 100
    pts = sample_fundamental_domain(octagon, 3 * n, seed=seed)
    xs, ys = pts[n:2 * n], pts[2 * n:]
    gens = octagon.generators
    ys[::3] = [gens[k % 8].apply(x) for k, x in enumerate(xs[::3])]
    for r in (EQUIV_TOL, 1.0):
        iz, p = orbit_pairs(octagon, xs, ys, r)
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert p[iz == i].tobytes() \
                == orbit_pairs(octagon, x, y, r)[1].tobytes()
        assert orbit_counts(octagon, xs, ys, r).tolist() \
            == [int(orbit_counts(octagon, x, y, r)[0]) for x, y in zip(xs, ys)]
    keep = orbit_counts(octagon, xs, ys, EQUIV_TOL) == 0
    assert keep.tolist() == [k % 3 != 0 for k in range(n)]
    with pytest.raises(ValueError, match="99 base points for 100 points"):
        orbit_pairs(octagon, xs[1:], ys, 1.0)
