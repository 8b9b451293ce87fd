"""Injectivity radius, density, the cut-off potential and thresholds."""

import inspect
import math

import numpy as np
import pytest

from discforms import cli, domain as domain_module, group as group_module
from discforms import seshadri
from discforms.domain import dirichlet_domain
from discforms.errors import BoundaryPoint
from discforms.geometry import distance
from discforms.group import (
    enumerate_ball, orbit_counts, orbit_pairs, preset_genus2_octagon,
)
from discforms.seshadri import (
    SINGULAR_TOL, ampleness_thresholds, cutoff_a, density, injectivity_radius,
    psi_values, quasi_psh_check, seshadri_lower_bound,
)

from conftest import random_disc_points

D0 = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


@pytest.fixture(scope="module")
def rho0(octagon):
    return injectivity_radius(octagon, 0.0j)


def test_injectivity_radius_preset(octagon, rho0):
    assert rho0 == pytest.approx(D0 / 2.0, abs=1e-12)


def test_injectivity_conjugation_invariance(octagon, rho0):
    g = octagon.generators[2]
    assert injectivity_radius(octagon, g.apply(0.0j)) \
        == pytest.approx(rho0, abs=1e-9)


def test_injectivity_lipschitz(octagon, rng):
    pts = random_disc_points(rng, 5, r_max=0.5)
    rhos = [injectivity_radius(octagon, z) for z in pts]
    for i in range(len(pts)):
        for j in range(i):
            assert abs(rhos[i] - rhos[j]) \
                <= distance(pts[i], pts[j]) + 1e-10


def test_injectivity_radius_near_a_vertex():
    # d0 is 4.62 here and rho(0, x) 2.38: a ball at 0 that grew with 2 d0
    # instead of d0 would pass the 5M-element cap of enumerate_ball
    g = preset_genus2_octagon()
    x = 0.83 * np.exp(1j * np.pi / 8)
    assert injectivity_radius(g, x) == pytest.approx(1.528918622360119,
                                                     abs=1e-12)
    assert g._ball_at_0.radius < 10.0


def test_density_at_injectivity_radius(octagon, rho0):
    assert density(octagon, 0.0j, rho0).value == 1.0 / rho0 ** 2


@pytest.mark.parametrize("r", [0.01, 0.015])
@pytest.mark.parametrize("x", [0.0j, 0.3 - 0.1j])
def test_density_floor_below_grid_reach(octagon, r, x):
    # no grid node lies within r of an orbit point, but a center at x
    # counts x itself: D(r, x) >= 1/r^2
    rep = density(octagon, x, r)
    assert rep.best_count >= 1 and rep.value >= 1.0 / r ** 2
    assert orbit_counts(octagon, x, rep.best_center, r)[0] == rep.best_count


def test_density_count_monotone(octagon):
    z = 0.2 + 0.1j
    counts = [orbit_counts(octagon, 0.0j, z, r)[0]
              for r in (0.5, 1.0, 1.8, 2.5, 3.2)]
    assert counts == sorted(counts)


def _coarse_best(octagon, x, r):
    """density()'s report, and its best count and center over its grid and
    the reduced x, before the refinement pass.  The spacing is density's
    default, and the node count must match the report's."""
    spacing = inspect.signature(density).parameters["spacing"].default
    nodes = dirichlet_domain(octagon, spacing=spacing).nodes
    rep = density(octagon, x, r)
    assert rep.n_grid == len(nodes)
    zs = np.append(nodes, octagon.reduce_points([x]))
    counts = orbit_counts(octagon, x, zs, r)
    i = int(np.argmax(counts))
    return rep, int(counts[i]), complex(zs[i])


def test_density_refinement_monotone(octagon, rho0):
    rep, coarse, _ = _coarse_best(octagon, 0.0j, 1.5 * rho0)
    assert rep.best_count >= coarse


def test_cutoff_values():
    v, d = cutoff_a(0.0)
    assert v == 0.0 and d == 0.0
    v, _ = cutoff_a(-1.0)
    assert v == pytest.approx(-math.exp(-1.0), abs=1e-15)
    assert cutoff_a(2.0) == (0.0, 0.0)
    # slope tends to 1; a(t)/t converges only at 1/|t| rate
    _, d20 = cutoff_a(-20.0)
    assert abs(d20 - 1.0) < 1e-8
    v, _ = cutoff_a(-1e9)
    assert abs(v / -1e9 - 1.0) < 1e-8


def test_cutoff_c1_and_lipschitz():
    eps = 1e-7
    vm, dm = cutoff_a(-eps)
    assert abs(vm) < 1e-13 and abs(dm) < 1e-6
    ts = np.linspace(-10.0, 10.0, 20001)
    _, der = cutoff_a(ts)
    slopes = np.abs(np.diff(der) / np.diff(ts))
    assert np.max(slopes) <= 1.0 + 1e-9


def test_psi_empty_support(octagon, rho0):
    # z deep inside F, away from every orbit point of 0 by more than r
    z = 0.45 + 0.1j
    r = 0.5
    assert distance(z, 0.0j) > r
    assert psi_values(octagon, 0.0j, r, z)[0] == 0.0


def test_psi_invariance_and_singularity(octagon, rho0):
    g = octagon.generators[5]
    z = 0.25 - 0.1j
    r = 1.5 * rho0
    assert abs(psi_values(octagon, 0.0j, r, g.apply(z))[0]
               - psi_values(octagon, 0.0j, r, z)[0]) < 1e-12
    assert psi_values(octagon, 0.0j, r, 0.0j)[0] == -math.inf
    # psi - log rho^2 stays bounded as z -> x, differences stabilizing
    vals = [psi_values(octagon, 0.0j, rho0, eps)[0]
            - math.log(float(distance(eps, 0.0j)) ** 2)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    diffs = np.abs(np.diff(vals))
    assert diffs[-1] < diffs[0]
    assert diffs[-1] < 1e-4


def test_quasi_psh_preset(octagon, rho0):
    rep = quasi_psh_check(octagon, 0.0j, rho0, spacing=0.03)
    assert rep.n_violations == 0
    assert rep.n_checked > 1000


# the 18 stencil points of quasi_psh_check: h = 1e-3 and h/2
_UNIT = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 0])
_OFFSETS = np.concatenate([1e-3 * _UNIT, 1e-3 / 2.0 * _UNIT])


def _two_pass_excluded(g, x, r, zs, skip):
    """Reference exclusion: orbit_pairs at r, then the nodes within
    Euclidean distance skip of a pair's orbit point."""
    iz, p = orbit_pairs(g, x, zs, r)
    return np.unique(iz[np.abs(zs[iz] - p) <= skip])


# r = rho_x and 4 rho_x, and r below 10h = 0.01; the octagon's nodes reach
# its vertices, where rho(z, z + o) is about 7 times the Euclidean |o|
@pytest.mark.parametrize("name, x, factor, r", [
    ("octagon", 0.0j, 1.0, None), ("octagon", 0.0j, 4.0, None),
    ("octagon", 0.3 - 0.1j, 1.0, None), ("octagon", 0.3 - 0.1j, 4.0, None),
    ("octagon", 0.0j, None, 0.005), ("octagon", 0.3 - 0.1j, None, 0.005),
    ("trivial", 0.005 + 0j, None, 0.0125), ("trivial", 0.0j, None, 1.0)])
def test_stencil_psi_matches_psi_values(octagon, trivial, monkeypatch, name,
                                        x, factor, r):
    # every stencil value is psi_values' at the same point, to the bit, and
    # the blocks hold the nodes the two-pass reference keeps: skip 0 keeps
    # nodes beside the orbit (-inf markers), 10h = 0.01 is the check's own;
    # small blocks make several candidate queries
    monkeypatch.setattr(seshadri, "_STENCIL_BLOCK", 256)
    g = octagon if name == "octagon" else trivial
    r = r or factor * injectivity_radius(g, x)
    span = np.arange(-0.7, 0.7001, 0.05)
    zs = (dirichlet_domain(g, spacing=0.03).nodes if name == "octagon"
          else (span[:, None] + 1j * span[None, :]).ravel())
    # points on and near the orbit of x: -inf markers and small-r terms
    orbit = [x] + [h.apply(x) for h in g.generators[:1]]
    zs = np.append(zs, [p + d for p in orbit for d in (0, 0.002, 0.003j)])
    n_terms = 0
    for skip in (0.0, 0.01):
        blocks = []
        for blk, psi in seshadri._stencil_psi(g, x, r, zs, _OFFSETS, skip):
            blocks.append(blk)
            for o, row in zip(_OFFSETS, psi):
                assert np.array_equal(row, psi_values(g, x, r, zs[blk] + o))
                n_terms += np.count_nonzero(row)
        assert len(blocks) > 1
        excluded = _two_pass_excluded(g, x, r, zs, skip)
        assert len(excluded) > 0
        assert np.array_equal(np.sort(np.concatenate(blocks)),
                              np.setdiff1d(np.arange(len(zs)), excluded))
    assert n_terms > 0


@pytest.mark.parametrize("name", ["octagon", "trivial"])
def test_stencil_reach_covers_every_offset(octagon, trivial, monkeypatch,
                                           name):
    # the candidate queries ask for r plus a reach bound no smaller than
    # the largest rho(z, z + o) a scan finds; the octagon's nodes reach its
    # vertices, the trivial grid |z| = 0.9
    g = octagon if name == "octagon" else trivial
    span = np.arange(-0.7, 0.7001, 0.0125)
    zs = (dirichlet_domain(g, spacing=0.0125).nodes if name == "octagon"
          else (span[:, None] + 1j * span[None, :]).ravel())
    zs = zs[np.abs(zs) < 0.9]
    radii = []
    real_pairs = seshadri.orbit_pairs
    monkeypatch.setattr(seshadri, "orbit_pairs",
                        lambda *a: radii.append(a[3]) or real_pairs(*a))
    r = 0.5
    for _ in seshadri._stencil_psi(g, 0.0j, r, zs, _OFFSETS, 0.01):
        pass
    scanned = max(float(np.max(distance(zs, zs + o))) for o in _OFFSETS)
    assert len(set(radii)) == 1 and radii[0] - r >= scanned
    # a node within |o| of the unit circle puts a stencil point outside
    edge = np.append(zs, 0.9995 + 0j)
    with pytest.raises(BoundaryPoint):
        next(seshadri._stencil_psi(g, 0.0j, r, edge, _OFFSETS, 0.01))


@pytest.mark.parametrize("bad", [1.5, 1.0, complex(np.nan, 0.0)])
def test_orbit_queries_reject_a_base_point_off_the_disc(octagon, trivial,
                                                        bad):
    # orbit_pairs checks x on entry, and psi_values through it
    for g in (octagon, trivial):
        with pytest.raises(BoundaryPoint, match="is not inside"):
            orbit_pairs(g, bad, [0.1], 0.5)
        with pytest.raises(BoundaryPoint, match="is not inside"):
            psi_values(g, bad, 0.5, [0.1, -0.2j])


def test_quasi_psh_queries_each_node_once(octagon, rho0, monkeypatch):
    # per r the stencil's block queries are the check's only orbit queries
    # on its grid: one per _STENCIL_BLOCK nodes, each node in exactly one
    monkeypatch.setattr(seshadri, "_STENCIL_BLOCK", 256)
    queried = []
    real_pairs = seshadri.orbit_pairs
    monkeypatch.setattr(seshadri, "orbit_pairs",
                        lambda *a: queried.append(a[2]) or real_pairs(*a))
    quasi_psh_check(octagon, 0.0j, rho0, spacing=0.03)
    nodes = dirichlet_domain(octagon, spacing=0.03).nodes
    assert len(queried) == -(-len(nodes) // 256) > 1
    assert np.array_equal(np.sort(np.concatenate(queried)), np.sort(nodes))


def test_quasi_psh_builds_each_ball_once(monkeypatch, capsys):
    # at --r-factors 4: injectivity_radius, dirichlet_domain, density's
    # coarse and refined counts, then the stencil's first candidate query
    builds = []
    real_probe = group_module._probe_points
    monkeypatch.setattr(group_module, "_probe_points",
                        lambda x: builds.append(x) or real_probe(x))
    assert cli.main(["quasi-psh-check", "--r-factors", "4"]) == 0
    assert len(builds) == 5


def test_one_quadrature_grid_per_group_and_spacing(monkeypatch, capsys):
    # and one polygon cut per group, which its grids share; the separation
    # scan's sampler reads the polygon alone and builds no grid
    grids, cuts = [], []
    real_grid = domain_module._clipped_grid
    real_cut = domain_module.dirichlet_polygon
    monkeypatch.setattr(domain_module, "_clipped_grid",
                        lambda *a: grids.append(a[1]) or real_grid(*a))
    monkeypatch.setattr(domain_module, "dirichlet_polygon",
                        lambda p: cuts.append(len(p)) or real_cut(p))
    seshadri_lower_bound(preset_genus2_octagon(), 0.0j)
    assert grids == [0.02] and len(cuts) == 1
    grids.clear(), cuts.clear()
    assert cli.main(["quasi-psh-check"]) == 0
    assert sorted(grids) == [0.0125, 0.02] and len(cuts) == 1
    grids.clear(), cuts.clear()
    assert cli.main(["separation-scan"]) == 0
    assert grids == [] and len(cuts) == 1


def test_quasi_psh_single_center(trivial):
    # one center: D(r) = 1/r^2, so the check's coefficient 2 D is the
    # sharper -2 omega / r^2 bound of the display
    rep = quasi_psh_check(trivial, 0.0j, 1.0, spacing=0.03)
    assert rep.density_value == 1.0
    assert rep.n_violations == 0


def test_quasi_psh_skips_only_nodes_near_the_singular_orbit(trivial,
                                                            monkeypatch):
    # Grid nodes 0 and 0.0125 both lie within 10h = 0.01 of the orbit
    # point x = 0.005, at rho 0.0100 and 0.0150.  At r = 0.0125 psi is
    # singular only at orbit points within r, so node 0 is skipped and
    # node 0.0125, where psi is smooth, is checked.
    x, r = 0.005 + 0j, 0.0125
    assert distance(x, 0.0) < r < distance(x, 0.0125)
    blocks = []
    real_stencil = seshadri._stencil_psi

    def stencil(group, x, r, zs, offsets, skip):
        for blk, psi in real_stencil(group, x, r, zs, offsets, skip):
            blocks.append(zs[blk])
            yield blk, psi
    monkeypatch.setattr(seshadri, "_stencil_psi", stencil)
    rep = quasi_psh_check(trivial, x, r)
    # the stencil's blocks hold the checked nodes
    checked = np.concatenate(blocks)
    assert len(checked) == rep.n_checked
    assert np.min(np.abs(checked - 0.0125)) < 1e-9
    assert np.min(np.abs(checked - 0.0)) > 0.01


def test_seshadri_consistency(octagon, rho0):
    rep = seshadri_lower_bound(octagon, 0.0j)
    assert rep.rho_x == pytest.approx(rho0, abs=1e-15)
    assert rep.bound_inj == pytest.approx(rho0 ** 2 / 2.0, abs=1e-15)
    r_eq = 1.0 / (2.0 * density(octagon, 0.0j, rho0).value)
    assert abs(rep.bound_inj - r_eq) < 1e-10
    assert rep.epsilon_lower >= rep.bound_inj
    assert rep.best_r >= rho0 - 1e-12
    assert len(rep.candidates) == 5


def test_thresholds():
    assert ampleness_thresholds(2.0, 1) == {"demailly": 3, "main": 4}
    assert ampleness_thresholds(2.0, 1, C=2.0) \
        == {"demailly": 3, "main": 4, "df": 3}
    assert ampleness_thresholds(0.5, 1) == {"demailly": 6, "main": 7}
    assert ampleness_thresholds(2.0, 2) == {"demailly": 4, "main": 5}
    # epsilon -> infinity: demailly and df reach the standing floor m = 2;
    # the main inequality is vacuous at m = 2 ((m-2) eps = 0), so it stops
    # at 3 whatever epsilon
    big = ampleness_thresholds(1e12, 1, C=2.0)
    assert big == {"demailly": 2, "main": 3, "df": 2}
    with pytest.raises(ValueError):
        ampleness_thresholds(-1.0, 1)


_SHIFTS = {"demailly": -1.0, "main": -2.0}


def _thresholds_by_loop(epsilon, n, C=None):
    """Reference: try m = 2, 3, ... until (m + shift) eps > 2n."""
    shifts = dict(_SHIFTS, **({} if C is None else {"df": -2.0 + 1.0 / C}))
    out = {}
    for key, shift in shifts.items():
        m = 2
        while (m + shift) * epsilon <= 2.0 * n:
            m += 1
        out[key] = m
    return out


def test_thresholds_match_loop_on_ties():
    # epsilon = 2n/k and its float neighbours put (m + shift) eps on 2n or
    # within one rounding of it; C = 0.5 and 1 give integer shifts too
    ties = 0
    for n in (1, 2, 3, 7):
        for k in range(1, 120):
            e0 = 2.0 * n / k
            for eps in (e0, math.nextafter(e0, 0.0), math.nextafter(e0, 9.0)):
                ties += (k * eps == 2.0 * n)
                for C in (None, 0.5, 1.0, 3.0):
                    assert ampleness_thresholds(eps, n, C=C) \
                        == _thresholds_by_loop(eps, n, C=C), (eps, n, C)
    assert ties > 400      # not vacuous: many cases are exact ties


@pytest.mark.parametrize("epsilon, n", [(1e-6, 1), (2.0 ** -50, 1),
                                        (3e-7, 5)])
def test_thresholds_far_out(epsilon, n):
    # ~10^6 to 10^16 steps for the reference loop: check minimality instead
    out = ampleness_thresholds(epsilon, n, C=0.25)
    for key, shift in dict(_SHIFTS, df=-2.0 + 1.0 / 0.25).items():
        m = out[key]
        assert (m + shift) * epsilon > 2.0 * n
        assert m == 2 or (m - 1 + shift) * epsilon <= 2.0 * n


@pytest.mark.parametrize("epsilon, n, C", [
    (math.nan, 1, None), (math.inf, 1, None), (0.0, 1, None),
    (-1.0, 1, None), (2.0, 0, None), (2.0, 2 ** 53 + 1, None),
    (2.0, 1, 0.0), (2.0, 1, -1.0), (2.0, 1, math.inf), (2.0, 1, math.nan),
    (1e-300, 1, None), (2.0 ** -53, 1, None)])
def test_thresholds_reject(epsilon, n, C):
    with pytest.raises(ValueError):
        ampleness_thresholds(epsilon, n, C=C)


def test_psi_values_vector(octagon, rho0):
    zs = np.array([0.1 + 0.1j, 0.45 + 0.1j])
    out = psi_values(octagon, 0.0j, 0.5, zs)
    assert out.shape == (2,)
    assert out[1] == 0.0


def _dense_reference(ball, x, zs, r):
    """Orbit pairs, counts and psi from the full distance row of each point.

    The pairs of each point are the ball indices within r, in ball order.
    """
    pts = ball.terms(x)[0]
    pairs, psi = [], []
    for z in zs:
        d = distance(pts, z)
        pairs.append(np.flatnonzero(d < r))
        with np.errstate(divide="ignore"):
            t = 2.0 * np.log(np.maximum(d, 1e-300) / r)
        psi.append(-math.inf if np.any(d < SINGULAR_TOL)
                   else float(np.sum(cutoff_a(t)[0])))
    return pairs, np.array([len(p) for p in pairs]), np.array(psi)


def _assert_pairs_match(octagon, x, zs, r, ball, want):
    """orbit_pairs equals the dense pairs on the ball at 0 in order: points
    in order of rho(0, z), each point's orbit points in ball order.  The
    query must read a slice of the same cached ball."""
    iz, p = orbit_pairs(octagon, x, zs, r)
    pts = ball.terms(x)[0]
    order = np.argsort(distance(0.0j, zs), kind="stable")
    none = [np.zeros(0, dtype=np.int64)]
    assert np.array_equal(iz, np.concatenate(
        none + [np.full(len(want[k]), k) for k in order]))
    assert np.array_equal(p, np.concatenate(
        none + [pts[want[k]] for k in order]))
    return iz, p


def _same_points(a, b, tol=1e-9):
    """The same points up to rounding, in any order; orbit points lie far
    more than tol apart, so nearest neighbours both ways pair them up."""
    if len(a) != len(b):
        return False
    if not len(a):
        return True
    gap = np.abs(a[:, None] - b[None, :])
    return gap.min(axis=0).max() < tol and gap.min(axis=1).max() < tol


def _refinement_grid(octagon, x, r):
    """The local grid density() scans around its coarse best center; its
    best count is density's."""
    rep, coarse, c = _coarse_best(octagon, x, r)
    span = np.arange(-10, 11) * (r / 20.0) * (1.0 - abs(c) ** 2) / 2.0
    gx, gy = np.meshgrid(span, span, indexing="ij")
    local = c + gx.ravel() + 1j * gy.ravel()
    local = local[np.abs(local) < 1.0 - 1e-9]
    counts = orbit_counts(octagon, x, octagon.reduce_points(local), r)
    assert rep.best_count == max(coarse, int(np.max(counts)))
    return local


def _shifted_quasi_psh_grid(octagon, x, r):
    """Domain nodes moved by one finite-difference step, as in lap()."""
    return dirichlet_domain(octagon, spacing=0.03).nodes + 1e-3j


# At 2 rho_x the refinement grid reaches |z| = 0.9998 and a ball of 66,625
# elements; at 3 rho_x it is the grid of the largest default radius.  Every
# refinement grid here, and the shifted grid around 0.3-0.1j, holds points
# with rho(x, z) > r, where the displacement window of orbit_pairs is cut
# below as well as above.  0.7 lies outside D_0 (the octagon's edge
# midpoints lie at |z| = 0.643), where the ball at x is only empirically
# complete.  The query reads the ball at 0; the dense references scan the
# ball at 0 and, as an independent enumeration, the ball at x.
@pytest.mark.parametrize("grid, factor, x", [
    pytest.param(_refinement_grid, 2.0, 0.0j, id="_refinement_grid-2.0"),
    pytest.param(_refinement_grid, 3.0, 0.0j, id="_refinement_grid-3.0"),
    pytest.param(_shifted_quasi_psh_grid, 3.0, 0.0j,
                 id="_shifted_quasi_psh_grid-3.0"),
    pytest.param(_refinement_grid, 1.5, 0.3 - 0.1j,
                 id="_refinement_grid-1.5-x0.3-0.1j"),
    pytest.param(_refinement_grid, 3.0, 0.3 - 0.1j,
                 id="_refinement_grid-3.0-x0.3-0.1j"),
    pytest.param(_shifted_quasi_psh_grid, 1.5, 0.3 - 0.1j,
                 id="_shifted_quasi_psh_grid-1.5-x0.3-0.1j"),
    pytest.param(_refinement_grid, 1.5, 0.7 + 0j,
                 id="_refinement_grid-1.5-x0.7"),
    pytest.param(_shifted_quasi_psh_grid, 1.5, 0.7 + 0j,
                 id="_shifted_quasi_psh_grid-1.5-x0.7")])
def test_orbit_queries_match_dense_reference(octagon, grid, factor, x):
    r = factor * injectivity_radius(octagon, x)
    zs = grid(octagon, x, r)
    counts = orbit_counts(octagon, x, zs, r)
    got = psi_values(octagon, x, r, zs)
    for base in (0.0j, x):
        reach = (float(np.max(distance(base, zs)))
                 + float(distance(base, x)) + r + 1e-9)
        ball = enumerate_ball(octagon, base, reach)
        pairs, want_counts, psi = _dense_reference(ball, x, zs, r)
        if base == 0:
            iz, p = _assert_pairs_match(octagon, x, zs, r, ball, pairs)
        else:
            pts = ball.terms(x)[0]
            for k, w in enumerate(pairs):
                assert _same_points(p[iz == k], pts[w]), k
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(np.isinf(got), np.isinf(psi))
        np.testing.assert_allclose(got, psi, rtol=1e-13, atol=0.0)


def test_orbit_queries_below_singular_tol(octagon):
    # r below SINGULAR_TOL: points within SINGULAR_TOL of the orbit still
    # get the -inf marker, though they lie outside the support radius r
    r = 1e-10
    zs = np.array([0.0j, octagon.generators[2].apply(0.0j), 2e-10, 0.3])
    ball = enumerate_ball(octagon, 0.0j, 4.0)
    pairs, counts, psi = _dense_reference(ball, 0.0j, zs, r)
    _assert_pairs_match(octagon, 0.0j, zs, r, ball, pairs)
    assert list(psi) == [-math.inf, -math.inf, -math.inf, 0.0]
    assert list(counts) == [1, 1, 0, 0]
    assert np.array_equal(orbit_counts(octagon, 0.0j, zs, r), counts)
    assert np.array_equal(psi_values(octagon, 0.0j, r, zs), psi)


def test_orbit_query_needs_covering_ball():
    # one query leaves the ball at 0 cached at no less than its reach
    # max rho(0, z) + rho(0, x) + r, and its counts equal the dense counts
    # over a wider ball, so no orbit point beyond the cached one is missed
    zs = np.array([0.0j, 0.3])
    for x in (0.0j, 0.2 + 0.1j):
        reach = 4.0
        r = reach - float(distance(0.0j, 0.3)) - float(distance(0.0j, x))
        g = preset_genus2_octagon()
        counts = orbit_counts(g, x, zs, r)
        assert g._ball_at_0.radius >= reach - 1e-12
        wide = enumerate_ball(preset_genus2_octagon(), 0.0j, reach + 1.0)
        _, want, _ = _dense_reference(wide, x, zs, r)
        assert np.array_equal(counts, want)
        assert want.sum() > 0
