"""Fuchsian group arithmetic, enumeration and the genus-2 preset."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discforms import group as group_module, kernels, seshadri
from discforms.domain import dirichlet_domain
from discforms.embedding import very_ampleness_scan
from discforms.errors import BudgetExceeded, ConfigError
from discforms.geometry import distance, in_convex_polygon, mobius
from discforms.group import (
    DEDUP_MAX_RADIUS, DEDUP_TOL, FuchsianGroup, GroupElement, OrbitBall,
    _OCTAGON_RELATOR,
    _accept, _bfs_ball, _probe_points, _product, _psu_gap, _SeenKeys,
    _side_pairing, enumerate_ball,
    from_config_text, load_group, orbit_counts, preset_genus2_octagon,
)
from discforms.kernels import roundtrip_check
from discforms.series import SeedFunction, weight_sum
from discforms.seshadri import (
    injectivity_radius, quasi_psh_check, seshadri_lower_bound,
)

from conftest import (OCTAGON_D0, config_text, gap_to_identity,
                      mp_generator, random_disc_points, regular_4g_gon,
                      word_product, write_4g_gon)

D0 = 2.0 * math.acosh(1.0 + math.sqrt(2.0))   # preset generator displacement
# c(0): distance from 0 to the vertices of the preset's polygon D_0, the
# walk-lemma margin of a BFS at 0 without the descent lemma
C_WALK = math.acosh((1.0 + math.sqrt(2.0)) ** 2)


def test_preset_relator(octagon):
    assert octagon.relators == [_OCTAGON_RELATOR]
    assert gap_to_identity(*word_product(octagon, _OCTAGON_RELATOR)) < 1e-8


def test_relator_residual_is_the_psu_gap_to_identity(octagon):
    # the gap table holds, bit for bit, the max-norm distance up to sign
    a, b = word_product(octagon, _OCTAGON_RELATOR)
    want = min(max(abs(a - 1), abs(b)), max(abs(a + 1), abs(b)))
    assert gap_to_identity(a, b) == want <= DEDUP_TOL
    g = octagon.generators[0]
    assert gap_to_identity(g.alpha, g.beta) > 1.0
    # the sign of a pair is not seen, and the table is (rows, columns)
    pa = np.array([g.alpha, -g.alpha, 1.0])
    pb = np.array([g.beta, -g.beta, 0.0])
    gap = _psu_gap(pa, pb, pa[:2], pb[:2])
    assert gap.shape == (3, 2) and np.all(gap[:2] == 0.0)
    assert np.all(gap[2] == gap_to_identity(g.alpha, g.beta))


def test_preset_generators_symmetric(octagon):
    lo = octagon.min_generator_displacement()
    hi = octagon.max_generator_displacement(0.0j)
    assert hi - lo < 1e-10
    assert lo == pytest.approx(D0, abs=1e-12)
    # orbit of 0: eight points at equal angles k pi/4
    pts = np.array([g.apply(0.0j) for g in octagon.generators])
    ang = np.sort(np.angle(pts))
    assert np.max(np.abs(np.diff(ang) - math.pi / 4)) < 1e-10


def test_word_reduction_and_inverse(octagon):
    # a letter next to its inverse cancels in the product, and a word
    # followed by its inverse word is the identity
    a, b = word_product(octagon, (1, 2, -2, 3))
    a13, b13 = word_product(octagon, (1, 3))
    assert max(abs(a - a13), abs(b - b13)) < 1e-12
    assert gap_to_identity(*word_product(octagon, (1, 3, -3, -1))) < 1e-12
    g = GroupElement(a13, b13, (1, 3))
    gi = g.inverse()
    assert gi.word == (-3, -1)
    assert abs(gi.apply(g.apply(0.3j)) - 0.3j) < 1e-12
    # every word the BFS spells is freely reduced: no letter next to its
    # inverse, the identity's word empty
    words = enumerate_ball(octagon, 0.0j, 10.0).words
    assert len(words) == 5433 and words[0] == ()
    assert all(l != -m for w in words for l, m in zip(w, w[1:]))


def test_ball_small_radius_identity_only(octagon):
    ball = enumerate_ball(octagon, 0.0j, 0.9 * D0)
    assert len(ball) == 1
    assert ball.words[0] == ()


def test_ball_inverse_closed(octagon):
    # rho(x, g x) = rho(x, g^-1 x), so the ball is inverse-closed; compare
    # matrices up to sign (word spellings of an element need not match)
    ball = enumerate_ball(octagon, 0.0j, 6.5)
    ia, ib = np.conj(ball.alphas), -ball.betas
    for a, b in zip(ia, ib):
        res = np.minimum(np.abs(ball.alphas - a) + np.abs(ball.betas - b),
                         np.abs(ball.alphas + a) + np.abs(ball.betas + b))
        assert np.min(res) < 1e-9


def test_ball_word_rebuild(octagon):
    ball = enumerate_ball(octagon, 0.0j, 6.5)
    # also through a restriction of a larger ball, whose words run through
    # elements the restricted ball does not hold
    big = enumerate_ball(preset_genus2_octagon(), 0.0j, 8.0)
    restricted = big.restrict(6.5)
    assert len(restricted) == len(ball)
    for sub in (ball, restricted):
        for w, a, b in zip(sub.words, sub.alphas, sub.betas):
            ga, gb = word_product(octagon, w)
            res = min(abs(ga - a) + abs(gb - b), abs(ga + a) + abs(gb + b))
            assert res < 1e-9


def test_ball_growth_rate(octagon):
    # N(R) ~ c e^R for a cocompact group (area growth); ratios within 2x
    counts = [len(enumerate_ball(octagon, 0.0j, r)) for r in (4.0, 6.0, 8.0)]
    for n1, n2 in zip(counts, counts[1:]):
        ratio = n2 / n1
        assert math.exp(2.0) / 2.0 < ratio < math.exp(2.0) * 2.0


# base points in D_0: four by hand and two of the ball-cold benchmark pool
WALK_POINTS = [0.0j, 0.2 + 0.0j, 0.35 + 0.1j, -0.3j,
               0.1506552496487738 + 0.3499625193170382j,
               -0.061721954408755525 + 0.12119534290696322j]


@pytest.fixture(scope="module")
def nested_balls():
    # one group per base point and radius, for fresh builds at radii 8,
    # 10 and 12 that the groups then keep cached
    return {(x, r): preset_genus2_octagon() for x in WALK_POINTS
            for r in (8.0, 10.0, 12.0)}


def test_ball_huber_count(nested_balls):
    # Huber: N(R) = (cosh R - 1)/2 + O(e^{2R/3}) for a closed genus-2
    # surface (area 4 pi); the octagon gives 97, 793, 5,433 and 40,905.  A
    # fresh group per radius, so each count comes from a build, not the
    # cache.
    counts = [len(enumerate_ball(preset_genus2_octagon(), 0.0j, 6.0))]
    counts += [len(enumerate_ball(nested_balls[0.0j, r], 0.0j, r))
               for r in (8.0, 10.0, 12.0)]
    assert counts == [97, 793, 5433, 40905]
    for r, n in zip((6.0, 8.0, 10.0, 12.0), counts):
        assert abs(n - (math.cosh(r) - 1.0) / 2.0) <= math.exp(2.0 * r / 3.0)


def _vertex_reach(x):
    """c(x): the largest distance from x to a vertex of the octagon D_0."""
    return float(np.max(distance(x, OCTAGON_D0)))


def _same_elements(ball, ref):
    """Both balls hold the same elements: each element's images of the two
    probe points lie within DEDUP_TOL of one element's of the other ball.
    Spellings of an element may differ, and elements of a ball are far
    apart, so equal sizes make the match one to one."""
    def images(b):
        return np.stack([mobius(b.alphas, b.betas, p)
                         for p in _probe_points(ball.base)], axis=1)
    if len(ball) != len(ref):
        return False
    mine, theirs = images(ball), images(ref)
    order = np.argsort(theirs[:, 0].real)
    key = theirs[order, 0].real
    lo = np.searchsorted(key, mine[:, 0].real - DEDUP_TOL, "left")
    hi = np.searchsorted(key, mine[:, 0].real + DEDUP_TOL, "right")
    return all(np.any(np.max(np.abs(theirs[order[i:j]] - im), axis=1)
                      <= DEDUP_TOL) for im, i, j in zip(mine, lo, hi))


def test_preset_polygon_is_dirichlet_domain(octagon):
    # the walk lemma's premise: the polygon the certificate derives from the
    # generators is the regular octagon in closed form, and the ball cut of
    # dirichlet_domain, to 1e-14, with eight angles of pi/4 in one cycle
    verts, angles = _side_pairing(octagon.alphabet)
    dom = dirichlet_domain(octagon, spacing=0.05)
    assert len(verts) == len(dom.vertices) == 8
    assert np.max(np.abs(verts - dom.vertices)) <= 1e-14
    start = int(np.argmin(np.abs(verts - OCTAGON_D0[0])))
    assert np.max(np.abs(np.roll(verts, -start) - OCTAGON_D0)) <= 1e-14
    assert np.max(np.abs(angles - math.pi / 4)) <= 1e-14
    assert _vertex_reach(0.0j) == pytest.approx(C_WALK, abs=1e-12)


@pytest.mark.parametrize("x", WALK_POINTS)
def test_ball_complete_against_wider_margin(x):
    # the ball (the descent-lemma BFS at 0, the ball at 0 filtered
    # elsewhere) holds every element that a BFS at x with margin c(x) + 3
    # finds, c(x) being the walk lemma's margin.  At R = 10 that BFS takes
    # 8-19 s and 0.7-1.4 GB, so there it has margin c(x) + 1, at two of the
    # points.
    cases = [(6.0, 3.0), (7.0, 3.0), (8.0, 3.0)]
    if x in (0.0j, 0.35 + 0.1j):
        cases.append((10.0, 1.0))
    for radius, extra in cases:
        g = preset_genus2_octagon()
        ball = enumerate_ball(g, x, radius)
        wide = _bfs_ball(preset_genus2_octagon(), x, radius,
                         _vertex_reach(x) + extra)
        assert _same_elements(ball, wide)


@pytest.mark.parametrize("x", [0.8 + 0.0j, -0.5 - 0.6j])
def test_ball_outside_d0_against_wider_margin(x):
    # outside D_0 the filtered ball is as certified as the ball at 0; a BFS
    # at x with a margin one past the largest generator displacement at x
    # finds the same elements, and the words spell them (to 1e-10 of
    # |alpha| ~ e^(rho(0, gamma 0)/2), here up to 500)
    assert not in_convex_polygon(OCTAGON_D0, x, 0.0)
    for radius in (6.0, 8.0):
        ball = enumerate_ball(preset_genus2_octagon(), x, radius)
        g = preset_genus2_octagon()
        wide = _bfs_ball(g, x, radius, g.max_generator_displacement(x) + 1.0)
        assert _same_elements(ball, wide)
    assert np.all(ball.displacements <= radius)
    for w, a, b in zip(ball.words, ball.alphas, ball.betas):
        ha, hb = word_product(g, w)
        assert min(abs(ha - a) + abs(hb - b),
                   abs(ha + a) + abs(hb + b)) < 1e-10 * abs(a)


def test_ball_cold_pool_counts(monkeypatch):
    # the recorded counts of the benchmark's 64 base points at R = 10, and,
    # at R = 6, the elements of a BFS at x with margin c(x) + 1; the first
    # point reaches farthest from 0, so one ball at 0 serves all 64
    with open(Path(__file__).parents[1] / "perfbench" / "reference"
              / "ball_cold.json") as fh:
        ref = json.load(fh)
    pool = [(complex(*x), n) for row, counts in zip(ref["base_points"],
                                                    ref["kept"])
            for x, n in zip(row, counts)]
    pool.sort(key=lambda p: -abs(p[0]))
    builds = []
    real_probe = group_module._probe_points
    monkeypatch.setattr(group_module, "_probe_points",
                        lambda x: builds.append(x) or real_probe(x))
    g = preset_genus2_octagon()
    assert [len(enumerate_ball(g, x, ref["radius"])) for x, _ in pool] \
        == [n for _, n in pool]
    assert builds == [0.0j]
    for x, _ in pool:
        wide = _bfs_ball(preset_genus2_octagon(), x, 6.0,
                         _vertex_reach(x) + 1.0)
        assert _same_elements(enumerate_ball(g, x, 6.0), wide)


def test_second_base_point_builds_nothing(monkeypatch):
    # a ball off 0 builds only the ball at 0 of radius R + 2 rho(0, x), and
    # only when the cached one is smaller
    builds = []
    real_probe = group_module._probe_points
    monkeypatch.setattr(group_module, "_probe_points",
                        lambda x: builds.append(x) or real_probe(x))
    g = preset_genus2_octagon()
    for x, n_builds in [(0.3 + 0.0j, 1), (0.2j, 1), (0.0j, 1), (-0.1, 1),
                        (0.35 + 0.1j, 2)]:
        enumerate_ball(g, x, 8.0)
        assert len(builds) == n_builds
    assert builds == [0.0j, 0.0j]
    reach = g._ball_at_0.radius
    assert 8.0 + 2.0 * distance(0.0j, 0.35 + 0.1j) < reach < 8.0 + 1.6


@pytest.mark.parametrize("x", WALK_POINTS)
def test_ball_bits_independent_of_build_radius(nested_balls, x):
    # a fresh ball at R is, array for array and word for word, the ball
    # served by a group whose ball at 0 was built for a larger R'
    for r in (8.0, 10.0, 12.0):
        enumerate_ball(nested_balls[x, r], x, r)
    for r, r_big in [(8.0, 10.0), (8.0, 12.0), (10.0, 12.0)]:
        fresh = enumerate_ball(nested_balls[x, r], x, r)
        cut = enumerate_ball(nested_balls[x, r_big], x, r)
        assert nested_balls[x, r_big]._ball_at_0.radius >= r_big
        for a, b in [(fresh.alphas, cut.alphas), (fresh.betas, cut.betas),
                     (fresh.displacements, cut.displacements)]:
            assert np.array_equal(a, b)
        assert fresh.words == cut.words


def test_tree_is_the_ball_at_0(nested_balls):
    # descent lemma: at 0 no node outside the ball is expanded
    balls = [enumerate_ball(preset_genus2_octagon(), 0.0j, 6.0)]
    balls += [enumerate_ball(nested_balls[0.0j, r], 0.0j, r)
              for r in (8.0, 10.0, 12.0)]
    assert [len(b.parents) for b in balls] == [len(b) for b in balls] \
        == [97, 793, 5433, 40905]


@pytest.mark.parametrize("radius", [6.0, 8.0, 10.0])
def test_margin_0_ball_equals_walk_margin_ball(radius):
    # the same elements, bits and words as a build with the walk-lemma
    # margin c(0) passed explicitly
    ball = enumerate_ball(preset_genus2_octagon(), 0.0j, radius)
    ref = _bfs_ball(preset_genus2_octagon(), 0.0j, radius, C_WALK + 1e-3)
    assert len(ref.parents) > len(ball.parents) == len(ball)
    for a, b in [(ball.alphas, ref.alphas), (ball.betas, ref.betas),
                 (ball.displacements, ref.displacements)]:
        assert np.array_equal(a, b)
    assert ball.words == ref.words


def _keep_in_order(keys1, keys2, seen1, seen2):
    """The dedup rule row by row over Python sets of key tuples: skip a
    k1 repeated within the level, keep a row whose k1 and k2 are both
    unseen, then mark both seen."""
    kept, level = [], set()
    for i, (t1, t2) in enumerate(zip(keys1, keys2)):
        if t1 in level:
            continue
        level.add(t1)
        if t1 not in seen1 and t2 not in seen2:
            seen1.add(t1)
            seen2.add(t2)
            kept.append(i)
    return kept


def _reference_bfs(g, x, radius, margin):
    """_bfs_ball without the reach mask and without the key store: every
    reduced child of every frontier node is built and measured, as before
    the mask, and each level is deduplicated by _keep_in_order on the
    rounded probe images: coordinates over DEDUP_TOL, rounded, and rounded
    after a half shift."""
    letters, gen_a, gen_b, inv_index = g.alphabet
    probes = _probe_points(x)

    def keys(a, b):
        comps = np.stack([part(mobius(a, b, p)) for p in probes
                          for part in (np.real, np.imag)], axis=1) / DEDUP_TOL
        return [list(map(tuple, np.round(comps + shift).astype(np.int64)
                         .tolist())) for shift in (0.0, 0.5)]

    tree = [[np.array([1.0 + 0j])], [np.array([0.0j])], [np.zeros(1)],
            [np.array([-1])], [np.array([-1])]]
    seen1, seen2 = (set(k) for k in keys(tree[0][0], tree[1][0]))
    front = np.array([0])
    while len(front):
        fa, fb, fl = tree[0][-1], tree[1][-1], tree[4][-1]
        n = len(letters)
        par, pa, pb, plast = (np.repeat(c, n) for c in (front, fa, fb, fl))
        lidx = np.tile(np.arange(n), len(front))
        ok = (plast < 0) | (inv_index[np.clip(plast, 0, None)] != lidx)
        par, pa, pb, lidx = par[ok], pa[ok], pb[ok], lidx[ok]
        ga, gb = gen_a[lidx], gen_b[lidx]
        gac, gbc = np.conj(ga), np.conj(gb)
        ca = pa * ga + pb * gbc
        cb = pa * gb + pb * gac
        norm = np.sqrt(np.abs(ca) ** 2 - np.abs(cb) ** 2)
        ca /= norm
        cb /= norm
        disp = distance(x, mobius(ca, cb, x))
        keep = disp <= radius + margin
        level = [c[keep] for c in (ca, cb, disp, par, lidx)]
        new = _keep_in_order(*keys(level[0], level[1]), seen1, seen2)
        front = sum(len(c) for c in tree[0]) + np.arange(len(new))
        for col, c in zip(tree, level):
            col.append(c[new])
    a, b, d, parents, lidx = (np.concatenate(c) for c in tree)
    kept = np.flatnonzero(d <= radius)
    order = kept[np.argsort(d[kept], kind="stable")]
    signed = np.append(np.array(letters, dtype=np.int64), 0)
    return OrbitBall(x, radius, a[order], b[order], d[order], order,
                     parents, signed[lidx])


def _assert_same_ball(ball, ref):
    for name in ("alphas", "betas", "displacements", "nodes", "parents",
                 "letters"):
        assert np.array_equal(getattr(ball, name), getattr(ref, name)), name
    assert ball.words == ref.words


@pytest.mark.parametrize("radius", [6.0, 8.0, 10.0, 12.0])
def test_ball_at_0_equals_unmasked_bfs(radius):
    # an oracle outside _bfs_ball: the ball at 0, bit for bit and word for
    # word, is the BFS that builds every child before it measures it
    ball = enumerate_ball(preset_genus2_octagon(), 0.0j, radius)
    margin = 2.0 ** -39 * np.exp(radius)
    _assert_same_ball(ball, _reference_bfs(preset_genus2_octagon(), 0.0j,
                                           radius, margin))


@pytest.mark.parametrize("x", [0.35 + 0.1j, 0.8 + 0.0j])
def test_wide_margin_bfs_equals_unmasked_bfs(x):
    # off 0 the mask reaches rho(0, gamma 0) <= R + margin + 2 rho(0, x)
    g = preset_genus2_octagon()
    margin = g.max_generator_displacement(x) + 1.0
    _assert_same_ball(_bfs_ball(g, x, 7.0, margin),
                      _reference_bfs(g, x, 7.0, margin))


def test_trivial_ball_equals_unmasked_bfs(trivial):
    for x in (0.0j, 0.3j):
        _assert_same_ball(enumerate_ball(trivial, x, 5.0),
                          _reference_bfs(trivial, x, 5.0, 0.0))


@pytest.mark.parametrize("x, radius", [(0.0j, 12.0), (0.8 + 0.0j, 7.0)])
def test_reach_mask_passes_every_kept_child(monkeypatch, x, radius):
    # every (node, letter) child of the tree that the exact displacement
    # test keeps passes _within_reach.  Its slack is checked against the
    # true error: put each kept child at the limit, limit = d its computed
    # rho(0, gamma 0), bound = sinh^2(d/2)(|ga|^2 - |gb|^2); the least
    # (bound + slack - |cb|^2)/slack over 88,976 children at 0 and 287,400
    # at 0.8 reads 1 - 1.6e-5 and 1 - 1.1e-4, so a slack below twice the
    # true error fails.
    calls = []
    real = group_module._within_reach
    monkeypatch.setattr(group_module, "_within_reach",
                        lambda *a: calls.append((a, real(*a))) or
                        calls[-1][1].copy())
    g = preset_genus2_octagon()
    margin = (2.0 ** -39 * np.exp(radius) if x == 0
              else g.max_generator_displacement(x) + 1.0)
    _bfs_ball(g, x, radius, margin)
    _, gen_a, gen_b, _ = g.alphabet
    ratios = []
    for (fa, fb, (ga2, gb2, _), _), mask in calls:
        pa, pb = fa[:, None], fb[:, None]
        ca = pa * gen_a + pb * np.conj(gen_b)
        cb = pa * gen_b + pb * np.conj(gen_a)
        norm = np.sqrt(np.abs(ca) ** 2 - np.abs(cb) ** 2)
        a, b = ca / norm, cb / norm
        kept = distance(x, mobius(a, b, x)) <= radius + margin
        assert np.all(mask[kept])
        d = distance(0.0j, mobius(a, b, 0.0j))[kept]
        mag = (np.abs(pa) ** 2 * gb2 + np.abs(pb) ** 2 * ga2)[kept]
        ga2, gb2 = (np.broadcast_to(c, kept.shape)[kept] for c in (ga2, gb2))
        e = 2.0 ** -40 * np.exp(d)
        bound = np.sinh(d / 2.0) ** 2 * (ga2 - gb2)
        reach = (np.sinh(d / 2.0 + e) ** 2 * (ga2 - gb2)
                 * (1.0 + 1e-6 + e * np.sqrt(ga2)))
        slack = reach - bound + 1e-6 * mag
        ratios.append((bound + slack - np.abs(cb[kept]) ** 2) / slack)
    ratios = np.concatenate(ratios)
    assert len(ratios) > (2 * 40905 if x == 0 else 5000)
    assert np.min(ratios) > 0.5


def test_reach_slack_against_60_digits():
    # _within_reach's |beta|^2 slack against the exact error, at R = 10.
    # Each child of the ball at 0 sits at the limit its own computed
    # displacement d sets.  The mask reads the parent's bits, so the error
    # is taken from them: X = |pa gb + pb conj(ga)|^2 exactly, less the
    # bound B = sinh^2(d/2)(ga2 - gb2); the slack is the mask's threshold
    # at d less B, all in 60 digits.  The least (slack - error)/slack over
    # the 5,432 children reads 1 - 2.8e-6: the error is 2.8e-6 of the
    # slack, and the pin fails once the slack shrinks below 0.28 of today's
    # (test_reach_mask_passes_every_kept_child checks it in double).
    g = preset_genus2_octagon()
    ball = enumerate_ball(g, 0.0j, 10.0)
    letters, gen_a, gen_b, _ = g.alphabet
    ga2, gb2 = np.abs(gen_a) ** 2, np.abs(gen_b) ** 2
    row = np.empty(len(ball), dtype=np.int64)
    row[ball.nodes] = np.arange(len(ball))
    nodes = ball.nodes[ball.nodes > 0]
    index = {l: i for i, l in enumerate(letters)}
    letter = np.array([index[l] for l in ball.letters[nodes].tolist()])
    parent = row[ball.parents[nodes]]
    # the tree read right: parent times letter gives the child's bits
    child = _product(ball.alphas[parent], ball.betas[parent], gen_a[letter],
                     gen_b[letter])
    assert np.array_equal(child[0], ball.alphas[row[nodes]])
    assert np.array_equal(child[1], ball.betas[row[nodes]])
    ratios = []
    with mpmath.workdps(60):
        for pa, pb, ga, gb, a2, b2, d in zip(
                ball.alphas[parent].tolist(), ball.betas[parent].tolist(),
                gen_a[letter].tolist(), gen_b[letter].tolist(),
                ga2[letter].tolist(), gb2[letter].tolist(),
                ball.displacements[row[nodes]].tolist()):
            pa, pb, ga, gb = map(mpmath.mpc, (pa, pb, ga, gb))
            a2, b2 = mpmath.mpf(a2), mpmath.mpf(b2)
            x = abs(pa * gb + pb * mpmath.conj(ga)) ** 2
            half, e = mpmath.mpf(d) / 2, mpmath.ldexp(mpmath.exp(d), -40)
            bound = mpmath.sinh(half) ** 2 * (a2 - b2)
            mag = abs(pa) ** 2 * b2 + abs(pb) ** 2 * a2
            slack = (mpmath.sinh(half + e) ** 2 * (a2 - b2)
                     * (1 + mpmath.mpf(1e-6) + e * mpmath.sqrt(a2))
                     + mpmath.mpf(1e-6) * mag - bound)
            ratios.append(float((slack - (x - bound)) / slack))
    assert len(ratios) == len(ball) - 1
    assert 1 - 1e-5 < min(ratios) < 1 - 1e-6


class _Query(Exception):
    """Raised by a stand-in orbit query once it has recorded its call."""


def _first_query(name, fn, *args):
    """(zs, r) of the first call fn(*args) makes to seshadri.<name>."""
    calls = []

    def record(group, x, zs, r):
        calls.append((zs, r))
        raise _Query

    with pytest.MonkeyPatch.context() as m:
        m.setattr(seshadri, name, record)
        with pytest.raises(_Query):
            fn(*args)
    return calls[0]


def test_pair_window_slack_against_60_digits(monkeypatch):
    # orbit_pairs tests each point z only against the ball elements whose
    # displacement d lies in a window, rho(0, z) -+ w widened by a slack
    # (w = r + rho(0, x)).  Exactly, a pair has |D - rho(0, z)| < w by the
    # triangle inequality, so the slack must cover the rounding of d and of
    # the window's centre ends rho(0, z) -+ w.  Queries at points that are
    # not ball displacements: density's grid nodes at the README's r = 1.5,
    # and quasi-psh-check's first stencil query at the defaults' widest r,
    # 2 rho_x, its 1,024 farthest nodes.  The window is read from the two
    # searchsorted calls that cut it.  Every pair with exact rho(gamma 0,
    # z) < r (60 digits) lies in it, and the least ratio of slack to exact
    # error reads 1.85e4 and 3.81e3 (pinned to within 25%), so a slack that
    # drops below the error fails
    g = preset_genus2_octagon()
    queries = [
        _first_query("orbit_counts", seshadri.density, g, 0.0j, 1.5),
        _first_query("orbit_pairs", quasi_psh_check, g, 0.0j,
                     2.0 * injectivity_radius(g, 0.0j))]
    ends = {}

    class Recorded:
        def __getattr__(self, name):
            return getattr(np, name)

        def searchsorted(self, a, v, side="left"):
            if np.shape(v) == zs.shape:
                ends[side] = v
            return np.searchsorted(a, v, side)

    monkeypatch.setattr(group_module, "np", Recorded())
    least = []
    for zs, r in queries:
        ends.clear()
        group_module.orbit_pairs(g, 0.0j, zs, r)
        lo, hi = ends["left"], ends["right"]
        dz, w = distance(0.0j, zs), r + distance(0.0j, 0.0j)
        assert w == r
        ball = enumerate_ball(g, 0.0j, float(np.max(dz + w)))
        # pairs in double, whose rounding is below 1e-10 here (rho_error);
        # those within 1e-6 of r are decided in 60 digits
        rho = distance(mobius(ball.alphas[:, None], ball.betas[:, None],
                              0.0j), zs[None, :])
        with mpmath.workdps(60):
            tree = {0: (mpmath.mpf(1), mpmath.mpf(0))}
            for node in range(1, max(ball.nodes.tolist()) + 1):
                pa, pb = tree[int(ball.parents[node])]
                ga, gb = mp_generator(int(ball.letters[node]))
                tree[node] = (pa * ga + pb * mpmath.conj(gb),
                              pa * gb + pb * mpmath.conj(ga))
            orbit = [tree[n][1] / mpmath.conj(tree[n][0])
                     for n in ball.nodes.tolist()]
            t_r = mpmath.tanh(mpmath.mpf(r) / 2)
            pair = rho < r - 1e-6
            for i, k in zip(*np.nonzero(np.abs(rho - r) <= 1e-6)):
                z = mpmath.mpc(zs[k])
                pair[i, k] = abs((orbit[i] - z)
                                 / (1 - mpmath.conj(orbit[i]) * z)) < t_r
            rows, cols = np.nonzero(pair)
            err_d = np.array([float(abs(2 * mpmath.atanh(abs(p)) - d))
                              for p, d in zip(orbit,
                                              ball.displacements.tolist())])
            # per point: the slack, window end less centre end, and the
            # centre ends' error against rho(0, z) -+ r
            slack, err_z = np.empty((2, len(zs)))
            for k in np.unique(cols).tolist():
                exact = 2 * mpmath.atanh(abs(mpmath.mpc(zs[k])))
                a, b, c, e = map(mpmath.mpf, (lo[k], hi[k], dz[k] - w,
                                              dz[k] + w))
                slack[k] = float(min(c - a, b - e))
                err_z[k] = float(max(abs(c - (exact - r)),
                                     abs(e - (exact + r))))
        d = ball.displacements[rows]
        assert np.all((lo[cols] <= d) & (d <= hi[cols]))
        err = err_d[rows] + err_z[cols]     # 0 for the identity at z = 0
        least.append(float(np.min(slack[cols][err > 0] / err[err > 0])))
        assert len(rows) > 2000
    assert np.all(np.abs(np.log(np.array(least) / [1.85e4, 3.81e3]))
                  < np.log(1.25)), least


def _traced_build(radius):
    """(ball at 0 built by _bfs_ball with margin 0, its tracemalloc peak)."""
    tracemalloc.start()
    try:
        ball = _bfs_ball(preset_genus2_octagon(), 0.0j, radius, 0.0)
        return ball, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ball_bytes(ball):
    return [getattr(ball, name).tobytes() for name in (
        "alphas", "betas", "displacements", "nodes", "parents", "letters")]


@pytest.mark.parametrize("rows", [1, 7, 100])
def test_reach_mask_in_blocks_keeps_every_bit(monkeypatch, rows):
    # every mask entry is computed alone, so any block of parents, ragged
    # last block included, gives the whole table's bits
    calls = []
    real = group_module._within_reach

    def both(*args):
        got = real(*args)
        with monkeypatch.context() as m:
            m.setattr(group_module, "_REACH_ROWS", 10 ** 9)
            calls.append(np.array_equal(got, real(*args)))
        return got

    monkeypatch.setattr(group_module, "_REACH_ROWS", rows)
    monkeypatch.setattr(group_module, "_within_reach", both)
    ball = _bfs_ball(preset_genus2_octagon(), 0.0j, 8.0, 0.0)
    monkeypatch.undo()
    assert len(calls) > 5 and all(calls)
    assert _ball_bytes(ball) == _ball_bytes(
        _bfs_ball(preset_genus2_octagon(), 0.0j, 8.0, 0.0))


def test_reach_11_7_build_peaks_lower(monkeypatch):
    # the ball at 0 of reach 11.7, the largest ball-cold needs.  With the
    # whole (parent x letter) table at once, the widest level (9,264
    # parents) held 1.96 MiB of float tables on top of 3.34 MiB live, and
    # the key stores and one copy per column more at the end made a 6.29
    # MiB peak.  Measured now: 4.65 MiB, and 5.37 with one block for all
    # parents, bit for bit the same ball
    ball, peak = _traced_build(11.7)
    monkeypatch.setattr(group_module, "_REACH_ROWS", 10 ** 9)
    whole, whole_peak = _traced_build(11.7)
    assert len(ball) == 30393
    assert _ball_bytes(ball) == _ball_bytes(whole)
    assert peak < 4.8 * 2 ** 20 and peak < whole_peak - 0.5 * 2 ** 20


@pytest.mark.parametrize("radius, kept", [(10.0, 5433), (12.0, 40905)])
def test_ball_at_0_measures_few_children(monkeypatch, radius, kept):
    # children are tested on |beta|^2 before they are built, so a build
    # measures 6,425 elements at R = 10 and 48,073 at R = 12 (the base
    # point's own rho(0, x) is one of them); building every child measured
    # 38,032 and 286,336, 7.0 times the kept count
    measured = []
    real = group_module.distance
    monkeypatch.setattr(group_module, "distance",
                        lambda z, w: measured.append(np.size(w)) or real(z, w))
    assert len(enumerate_ball(preset_genus2_octagon(), 0.0j, radius)) == kept
    assert sum(measured) <= 1.25 * kept


def _conjugate(alphas, betas, t=0.2):
    """h g h^-1 for each pair g = (alpha, beta), h(z) = (z + t)/(1 + t z),
    through the BFS's own product."""
    ha = np.full(len(alphas), 1.0 / math.sqrt(1.0 - t * t) + 0j)
    a, b = _product(ha, t * ha, np.asarray(alphas), np.asarray(betas))
    return _product(a, b, ha, -t * ha)


def _conjugated_octagon():
    """The preset conjugated by h(z) = (z + 0.2)/(1 + 0.2 z): its
    generators' bisectors of 0 leave the polygon they cut unbounded."""
    gens = preset_genus2_octagon().generators
    a, b = _conjugate([g.alpha for g in gens], [g.beta for g in gens])
    return FuchsianGroup([GroupElement(complex(x), complex(y), g.word)
                          for x, y, g in zip(a, b, gens)], [_OCTAGON_RELATOR])


def test_margin_0_needs_the_dirichlet_polygon(octagon):
    # the precondition is checked, not assumed: it holds on the octagon and
    # its file copy, and the conjugated octagon, whose generators pair no
    # polygon about 0, takes the empirical margin, the largest generator
    # displacement at 0
    assert octagon.dirichlet_at_0
    assert from_config_text(config_text(octagon)).dirichlet_at_0
    assert not load_group("trivial").dirichlet_at_0
    moved = _conjugated_octagon()
    assert not moved.dirichlet_at_0
    ball = enumerate_ball(moved, 0.0j, 8.0)
    assert len(ball.parents) > len(ball)
    margin = moved.max_generator_displacement(0.0j)
    assert margin > D0
    same = _bfs_ball(_conjugated_octagon(), 0.0j, 8.0, margin)
    for a, b in [(ball.alphas, same.alphas), (ball.betas, same.betas),
                 (ball.parents, same.parents)]:
        assert np.array_equal(a, b)
    # and complete: the octagon's certified ball at h^-1(0) = -0.2,
    # conjugated, holds the same elements
    at = enumerate_ball(octagon, -0.2 + 0j, 8.0)
    alphas, betas = _conjugate(at.alphas, at.betas)
    assert _same_elements(ball, dataclasses.replace(at, base=0.0j, alphas=alphas,
                                                    betas=betas))


# rotation by pi/2 about 0: a finite group of order 4 in PSU(1,1)
ROT4 = "generator.0 = 0.7071067811865476 0.7071067811865476 0.0 0.0\n"


def _genus(verts, angles):
    """Gauss-Bonnet: a D_0 of n sides has area (n - 2) pi - sum of angles
    = 4 pi (g - 1)."""
    return 1.0 + ((len(verts) - 2) * math.pi - np.sum(angles)) / (4 * math.pi)


def test_certificate_holds_on_side_pairings(octagon, tmp_path):
    # the preset, its file copy, four generators and their inverses, a
    # redundant eleventh letter g1 g2 and the regular 4g-gon files: each
    # alphabet pairs the sides of the polygon its bisectors cut, and Gauss-
    # Bonnet on the certified angles gives the genus
    gens = octagon.generators
    g1g2 = _product(*(np.array([v]) for v in (gens[0].alpha, gens[0].beta,
                                               gens[1].alpha, gens[1].beta)))
    groups = [(octagon, 2), (from_config_text(config_text(octagon)), 2),
              (FuchsianGroup(gens[:4]), 2),
              (FuchsianGroup(gens + [GroupElement(g1g2[0][0], g1g2[1][0])]),
               2)]
    groups += [(load_group(str(write_4g_gon(tmp_path / f"{g}.cfg", g))), g)
               for g in (2, 3, 4)]
    for g, genus in groups:
        assert g.dirichlet_at_0, g.name
        verts, angles = _side_pairing(g.alphabet)
        assert len(verts) == 4 * genus
        assert _genus(verts, angles) == pytest.approx(genus, abs=1e-12)


def test_certificate_rejects_what_pairs_no_sides(octagon, monkeypatch):
    gens = octagon.generators
    far = GroupElement(complex(math.cosh(3.5)), complex(math.sinh(3.5)))
    moved = GroupElement(gens[0].alpha, gens[0].beta + 1e-6)
    cases = {
        "conjugated": _conjugated_octagon(),
        "minus a pair": FuchsianGroup([g for k, g in enumerate(gens)
                                       if k % 4 != 1]),
        "moved by 1e-6": FuchsianGroup([moved] + gens[1:]),
        "far translation": FuchsianGroup(gens + [far]),   # not in the group
        "rot4": from_config_text(ROT4),
        "trivial": load_group("trivial"),
    }
    for name, g in cases.items():
        assert not g.dirichlet_at_0, name
    # the far translation and the moved generator leave the octagon cut and
    # paired (checks 1 to 4): only the reduction of the idle letters to the
    # identity sees that they are not words in the pairings
    for name in ("moved by 1e-6", "far translation"):
        alphabet = cases[name].alphabet
        assert _side_pairing(alphabet) is None
        monkeypatch.setattr(group_module, "DEDUP_TOL", 1.0)
        verts, _ = _side_pairing(alphabet)
        monkeypatch.undo()
        assert np.max(np.abs(verts - _side_pairing(octagon.alphabet)[0])) \
            <= 1e-14


def test_file_copy_builds_the_presets_ball(octagon):
    # the certificate, not the preset's name, gives margin 0: the file copy
    # builds the R = 10 ball at 0 bit for bit and word for word
    ball = enumerate_ball(preset_genus2_octagon(), 0.0j, 10.0)
    copy = enumerate_ball(from_config_text(config_text(octagon)), 0.0j, 10.0)
    assert len(copy) == len(copy.parents) == 5433
    for field in ("alphas", "betas", "displacements", "nodes", "parents",
                  "letters"):
        assert np.array_equal(getattr(ball, field), getattr(copy, field))
    assert ball.words == copy.words


def test_genus_3_group(tmp_path):
    # the regular 12-gon file: certified, with its genus from Gauss-Bonnet,
    # rho_0 = arccosh(cot(pi/12)) in closed form, the R = 8 count against
    # Huber's leading term (cosh R - 1)/(2 (g - 1)), and the margin-0 ball
    # against a BFS whose margin passes the vertex reach c(0)
    g = load_group(str(write_4g_gon(tmp_path / "genus3.cfg", 3)))
    verts, angles = _side_pairing(g.alphabet)
    genus = round(_genus(verts, angles))
    assert genus == 3 and len(verts) == 12
    assert injectivity_radius(g, 0.0j) == pytest.approx(
        math.acosh(1.0 / math.tan(math.pi / 12)), rel=1e-12)
    r = 8.0
    ball = enumerate_ball(g, 0.0j, r)
    assert len(ball) == len(ball.parents) == 349   # margin 0: tree = ball
    assert abs(len(ball) - (math.cosh(r) - 1.0) / (2 * (genus - 1))) \
        <= math.exp(2.0 * r / 3.0)
    ball = enumerate_ball(g, 0.0j, 6.0)
    reach = float(np.max(distance(0.0j, verts)))
    wide = _bfs_ball(regular_4g_gon(3), 0.0j, 6.0, reach + 1.0)
    assert _same_elements(ball, wide)


def test_counts_invariant_and_reduced_into_domain(octagon, rng):
    # counts are Gamma-invariant, so density may count at reduced points;
    # reduced points lie in the Dirichlet domain of 0, up to a Klein-model
    # slack of 1e-9 for the rounding of up to a dozen Mobius steps
    ball = enumerate_ball(octagon, 0.0j, 4.0)
    dom = dirichlet_domain(octagon, spacing=0.05)
    zs = random_disc_points(rng, 200, r_max=0.995)
    pick = rng.integers(len(ball), size=len(zs))
    gz = mobius(ball.alphas[pick], ball.betas[pick], zs)
    q = octagon.reduce_points(gz)
    assert np.all(in_convex_polygon(dom.vertices, q, 1e-9))
    assert np.all(in_convex_polygon(dom.vertices, octagon.reduce_points(zs),
                                    1e-9))
    for x, r in [(0.0j, 1.5), (0.1 + 0.05j, 3.0)]:
        want = orbit_counts(octagon, x, zs, r)
        assert np.array_equal(orbit_counts(octagon, x, gz, r), want)
        assert np.array_equal(orbit_counts(octagon, x, q, r), want)


def test_cache_serves_only_its_radius():
    g = preset_genus2_octagon()
    small = enumerate_ball(g, 0.0j, 6.0)
    built = g._ball_at_0
    assert built.radius == 6.0 and np.all(built.displacements <= 6.0)
    assert len(built) == len(small) == 97
    # a larger request rebuilds rather than serving past the built radius
    grown = enumerate_ball(g, 0.0j, 6.1)
    rebuilt = g._ball_at_0
    assert rebuilt is not built and grown.radius == rebuilt.radius == 6.1
    assert len(grown) == len(enumerate_ball(preset_genus2_octagon(), 0.0j,
                                            6.1))
    # a smaller one is a restriction of the cached ball
    assert enumerate_ball(g, 0.0j, 5.0).radius == 5.0
    assert g._ball_at_0 is rebuilt


@pytest.mark.parametrize("order", [(0.0j, 1e-13), (1e-13, 0.0j)])
def test_ball_cache_keys_the_exact_base_point(order):
    # a base point within 5e-13 of 0 once shared the ball at 0's cache key,
    # so the second request was served the first one's ball.  In either
    # order each gets a ball at its own base point, and an off-0 request
    # never returns the kept ball at 0 nor puts its own ball in its place.
    g = preset_genus2_octagon()
    for x in order:
        ball = enumerate_ball(g, x, 5.0)
        held = g._ball_at_0
        assert ball.base == x and held.base == 0.0
        again = enumerate_ball(g, x, 5.0)
        assert again.base == x and g._ball_at_0 is held
        assert np.array_equal(ball.displacements, enumerate_ball(
            preset_genus2_octagon(), x, 5.0).displacements)
        if x != 0:
            assert not np.shares_memory(ball.displacements,
                                        held.displacements)
    assert enumerate_ball(g, 0.0j, 5.0).base == 0.0


def test_group_equality_ignores_its_caches():
    # == compares generators, relators and name; the kept ball and the
    # domains are caches, so two presets stay equal once each holds them
    g1, g2 = preset_genus2_octagon(), preset_genus2_octagon()
    for g in (g1, g2):
        enumerate_ball(g, 0.0j, 6.0)
        dirichlet_domain(g, spacing=0.05)
    assert g1 == g2 and g1._ball_at_0 is not g2._ball_at_0
    assert g1 != load_group("trivial")
    assert g1 == from_config_text(config_text(g1))   # D_0 is derived


def test_group_keeps_only_the_ball_at_0():
    # library work at x != 0 leaves one ball on the group, the ball at 0;
    # every ball at x != 0 is a fresh cut, equal to one on a new group
    g = preset_genus2_octagon()
    x = 0.3 - 0.1j
    seshadri_lower_bound(g, x)
    quasi_psh_check(g, x, 1.5, spacing=0.05)
    weight_sum(g, 0.3, 0.1j, 8.0)
    for z in (0.35 + 0.1j, -0.3j, 1e-13):
        ball = enumerate_ball(g, z, 8.0)
        fresh = enumerate_ball(preset_genus2_octagon(), z, 8.0)
        for a, b in [(ball.alphas, fresh.alphas), (ball.betas, fresh.betas),
                     (ball.displacements, fresh.displacements)]:
            assert np.array_equal(a, b)
        assert ball.words == fresh.words
    balls = [v for v in vars(g).values() if isinstance(v, OrbitBall)]
    assert len(balls) == 1 and balls[0] is g._ball_at_0
    assert g._ball_at_0.base == 0.0


@pytest.mark.parametrize("x", [0.0j, 0.2 + 0.0j])
def test_margin_build_leaves_the_kept_ball(x):
    # the BFS with an explicit margin, the tests' wide-margin reference,
    # neither reads nor writes the group's kept ball, so it never compares
    # a ball with itself
    g = preset_genus2_octagon()
    _bfs_ball(g, x, 8.0, 1.0)
    assert g._ball_at_0 is None
    enumerate_ball(g, 0.0j, 9.0)
    held = g._ball_at_0
    wide = _bfs_ball(g, x, 6.0, C_WALK + 1.0)
    assert g._ball_at_0 is held and held.radius == 9.0
    assert len(wide.parents) > len(wide)
    assert not np.shares_memory(wide.alphas, held.alphas)


def test_orbit_work_reads_only_the_ball_at_0(monkeypatch):
    # orbit queries at x != 0 read the ball at 0; quasi_psh_check's first
    # candidate query of an r sizes the ball for all its blocks (made small
    # here, so there are several), and the scan and the round trip build
    # their series ball before the domain's smaller one
    builds, queries = [], []
    real_probe, real_pairs = group_module._probe_points, seshadri.orbit_pairs

    def pairs(group, x, zs, r):
        out = real_pairs(group, x, zs, r)
        queries.append((r, len(builds)))
        return out
    monkeypatch.setattr(group_module, "_probe_points",
                        lambda x: builds.append(x) or real_probe(x))
    monkeypatch.setattr(seshadri, "orbit_pairs", pairs)
    monkeypatch.setattr(seshadri, "_STENCIL_BLOCK", 64)
    x, r = 0.3 - 0.1j, 4.5
    seed = SeedFunction.poly([1.0])
    for run, n_builds in [
            (lambda g: seshadri_lower_bound(g, x), None),
            (lambda g: quasi_psh_check(g, x, r, spacing=0.03), None),
            (lambda g: very_ampleness_scan(g, 4, n_samples=10), 1),
            (lambda g: roundtrip_check(g, seed, 4, [0.1, 0.2j],
                                       spacing=0.05), 1)]:
        g = preset_genus2_octagon()
        builds.clear()
        run(g)
        assert g._ball_at_0.base == 0.0
        assert n_builds is None or len(builds) == n_builds
    # the candidate queries ask past r; builds done after each one
    built = [n for q, n in queries if q > r]
    assert len(built) > 1 and built == [built[0]] * len(built)


def test_roundtrip_sums_the_moments_once(monkeypatch):
    # one ball, and one relative_poincare call for all samples together,
    # so the kernel moments are built once per round trip
    builds, calls = [], []
    real_probe, real_rp = group_module._probe_points, kernels.relative_poincare
    monkeypatch.setattr(group_module, "_probe_points",
                        lambda x: builds.append(x) or real_probe(x))
    monkeypatch.setattr(kernels, "relative_poincare",
                        lambda *args: calls.append(args) or real_rp(*args))
    seed = SeedFunction.poly([1.0])
    for pts in ([0.1], [0.1, 0.2j, -0.15 + 0.05j]):
        builds.clear()
        calls.clear()
        rep = roundtrip_check(preset_genus2_octagon(), seed, 4, pts,
                              spacing=0.05)
        assert len(builds) == 1 and len(calls) == 1
        assert len(rep.rel_errors) == len(pts) and rep.max_rel_error < 0.05


@pytest.mark.parametrize("x", WALK_POINTS)
def test_ball_sorted_by_displacement(x):
    # each build sorts its ball by displacement, ties in BFS order at 0 and
    # in the order of the ball at 0 elsewhere
    g = preset_genus2_octagon()
    for radius in (6.0, 8.0, 10.0):
        full = enumerate_ball(g, x, radius)
        assert full.radius == radius
        assert np.all(np.diff(full.displacements) >= 0)
        at0 = g._ball_at_0
        rank = np.empty(len(at0.parents), dtype=np.int64)
        rank[at0.nodes] = np.arange(len(at0))
        tie = np.diff(full.displacements) == 0
        assert np.all(np.diff(rank[full.nodes])[tie] > 0)
        assert np.all(np.diff(at0.nodes)[np.diff(at0.displacements) == 0] > 0)
        assert full.nodes[0] == 0


def test_restrict_is_a_prefix_view():
    # restriction equals the selection displacement <= r element for
    # element, at an element's displacement, one ulp either side of it and
    # at a tied displacement, and shares the cached ball's memory
    g = preset_genus2_octagon()
    enumerate_ball(g, 0.0j, 10.0)
    full = g._ball_at_0
    d = full.displacements
    ties = np.flatnonzero(np.diff(d) == 0)
    assert len(ties) > 0
    words = full.words
    radii = [6.0, 8.0, 10.0]
    for i in [1, 96, 97, len(d) // 2, ties[0], ties[0] + 1, ties[-1]]:
        radii += [d[i], np.nextafter(d[i], -np.inf),
                  np.nextafter(d[i], np.inf)]
    for r in radii:
        keep = d <= r
        n = np.count_nonzero(keep)
        assert keep[:n].all()
        ball = full.restrict(r)
        assert len(ball) == n and ball.radius == r
        assert np.array_equal(ball.alphas, full.alphas[keep])
        assert np.array_equal(ball.betas, full.betas[keep])
        assert np.array_equal(ball.displacements, d[keep])
        assert ball.words == [w for w, k in zip(words, keep) if k]
        for a, b in [(ball.alphas, full.alphas), (ball.betas, full.betas),
                     (ball.displacements, d), (ball.nodes, full.nodes)]:
            assert np.shares_memory(a, b)


def test_dedup_matches_sequential_rule():
    # the array dedup keeps exactly the rows that the in-order rule keeps:
    # skip repeats of a k1 within the level, keep a row when neither key
    # is seen, then mark both seen.  Small key ranges force collisions.
    rng = np.random.default_rng(3)
    root = np.zeros((1, 2), dtype=np.int64)
    seen1, seen2 = _SeenKeys(root), _SeenKeys(root)
    ref1, ref2 = {(0, 0)}, {(0, 0)}
    for _ in range(8):
        k1 = rng.integers(0, [30, 3], size=(80, 2))
        k2 = rng.integers(0, [30, 3], size=(80, 2))
        want, level = [], set()
        for i, (t1, t2) in enumerate(zip(map(tuple, k1), map(tuple, k2))):
            if t1 in level:
                continue
            level.add(t1)
            if t1 not in ref1 and t2 not in ref2:
                ref1.add(t1)
                ref2.add(t2)
                want.append(i)
        assert _accept(k1, k2, seen1, seen2).tolist() == want


def _store_matches_rule(levels):
    """Run _accept over levels of (k1, k2) and check each level's rows, and
    what the stores then hold, against _keep_in_order over Python sets."""
    root = np.zeros((1, 2), dtype=np.int64)
    seen1, seen2 = _SeenKeys(root), _SeenKeys(root)
    ref1, ref2 = {(0, 0)}, {(0, 0)}
    for k1, k2 in levels:
        k1, k2 = (np.array(k, dtype=np.int64).reshape(-1, 2) for k in (k1, k2))
        want = _keep_in_order(map(tuple, k1.tolist()),
                              map(tuple, k2.tolist()), ref1, ref2)
        assert _accept(k1, k2, seen1, seen2).tolist() == want
        for seen, ref in ((seen1, ref1), (seen2, ref2)):
            held = np.stack([seen.first[:-1], seen.second[:-1]], axis=1)
            assert sorted(map(tuple, held.tolist())) == sorted(ref)
            assert np.all(np.diff(seen.first) >= 0)


def test_dedup_ties_in_the_first_column():
    # keys that share a first column and differ in the second, within a
    # level and across levels, in both key sets
    _store_matches_rule([
        ([5, 1, 5, 2, 5, 1, 5, 3, 4, 9], [7, 1, 7, 2, 7, 3, 8, 1, 7, 1]),
        ([5, 2, 5, 4, 5, 1, 5, 5, 5, 3], [7, 9, 7, 8, 7, 7, 7, 1, 9, 9]),
        ([0, 1, 0, 0, 5, 6, 5, 6], [7, 6, 7, 5, 7, 4, 7, 3]),
    ])
    # long runs: every key has first column 3
    rng = np.random.default_rng(5)
    _store_matches_rule([(np.stack([np.full(40, 3), rng.integers(0, 30, 40)],
                                   axis=1),
                          np.stack([np.full(40, 3), rng.integers(0, 30, 40)],
                                   axis=1)) for _ in range(6)])


def test_dedup_key_seen_two_levels_back():
    # level 0 keeps (9, 9) and (8, 8) in k1 and (6, 6) in k2; level 1 holds
    # neither; level 2 repeats one through k1, one through k2 alone
    _store_matches_rule([
        ([9, 9, 8, 8], [6, 6, 5, 5]),
        ([1, 1], [2, 2]),
        ([9, 9, 4, 4, 3, 3], [4, 4, 6, 6, 3, 3]),
    ])


def test_dedup_empty_level():
    # an empty level keeps nothing and leaves the stores as they were
    _store_matches_rule([([], []), ([1, 2, 1, 2], [3, 4, 5, 6]), ([], []),
                         ([1, 2, 7, 8], [9, 9, 3, 4])])


def test_dedup_queries_in_and_out_of_key_order():
    # the store answers queries in any order, and the level's rows may
    # come in key order or against it
    rng = np.random.default_rng(11)
    keys = rng.integers(0, [20, 4], size=(60, 2))
    store = _SeenKeys(keys)
    held_ref = set(map(tuple, keys.tolist()))
    queries = rng.integers(0, [24, 5], size=(200, 2))
    for order in (np.lexsort((queries[:, 1], queries[:, 0])),
                  np.lexsort((queries[:, 1], queries[:, 0]))[::-1],
                  rng.permutation(len(queries))):
        held, pos = store.find(queries[order])
        assert held.tolist() == [tuple(q) in held_ref
                                 for q in queries[order].tolist()]
        assert np.array_equal(pos, np.searchsorted(store.first,
                                                   queries[order, 0]))
    k1 = rng.integers(0, [20, 3], size=(50, 2))
    k2 = rng.integers(0, [20, 3], size=(50, 2))
    ordered = np.lexsort((k1[:, 1], k1[:, 0]))
    for order in (ordered, ordered[::-1], rng.permutation(50)):
        _store_matches_rule([(keys[:30], keys[30:]), (k1[order], k2[order])])


def test_ball_dedup_radius_limit(monkeypatch):
    g = preset_genus2_octagon()
    # off 0 the reach of the ball at 0, R + 2 rho(0, x) plus a slack of
    # 3.3e-4 or less below the limit, counts against it
    x = 0.2 + 0.0j
    c = 2.0 * float(distance(0.0j, x))
    with pytest.raises(BudgetExceeded, match=r"2 rho\(0, x\).*dedup"):
        enumerate_ball(g, x, DEDUP_MAX_RADIUS - c + 0.001)
    with pytest.raises(BudgetExceeded, match="dedup"):
        _bfs_ball(g, 0.0j, 5.0, DEDUP_MAX_RADIUS)
    # just inside the limit the build starts (and meets the element cap)
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 100)
    with pytest.raises(BudgetExceeded, match="cap 100"):
        enumerate_ball(g, x, DEDUP_MAX_RADIUS - c - 0.001)
    # at 0 the margin is the rounding slack alone, 3e-4 at radius 19
    with pytest.raises(BudgetExceeded, match="dedup"):
        enumerate_ball(g, 0.0j, DEDUP_MAX_RADIUS + 0.01)
    with pytest.raises(BudgetExceeded, match="cap 100"):
        enumerate_ball(g, 0.0j, DEDUP_MAX_RADIUS - 0.01)
    # the trivial group runs the same build, so the same limit holds
    with pytest.raises(BudgetExceeded, match="dedup"):
        enumerate_ball(load_group("trivial"), 0.0j, DEDUP_MAX_RADIUS + 0.01)


def test_ball_nonfinite_radius(octagon):
    for r in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="finite"):
            enumerate_ball(octagon, 0.0j, r)


def test_ball_restrict_consistency(octagon):
    big = enumerate_ball(octagon, 0.0j, 8.0)
    small = big.restrict(6.0)
    fresh = enumerate_ball(octagon, 0.1 + 0.05j, 6.0)
    assert len(small) == len(enumerate_ball(octagon, 0.0j, 6.0))
    assert np.all(small.displacements <= 6.0)
    assert len(fresh) >= 1


def test_ball_unitary_drift(octagon):
    # renormalized products stay far inside the SU(1,1) tolerance
    ball = enumerate_ball(octagon, 0.0j, 8.0)
    defect = np.abs(np.abs(ball.alphas) ** 2 - np.abs(ball.betas) ** 2
                    - 1.0)
    assert np.max(defect) < 1e-10


def test_ball_budget(monkeypatch):
    # the cap is read at each build, and a failed build keeps nothing
    g = preset_genus2_octagon()
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 100)
    with pytest.raises(BudgetExceeded, match="cap 100"):
        enumerate_ball(g, 0.0j, 14.0)
    assert g._ball_at_0 is None
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 97)
    assert len(enumerate_ball(g, 0.0j, 6.0)) == 97


def test_fixed_point_free(octagon, rng):
    ball = enumerate_ball(octagon, 0.0j, 6.0)
    zs = random_disc_points(rng, 100, r_max=0.7)
    for a, b in zip(ball.alphas[1:], ball.betas[1:]):
        assert np.min(distance(mobius(a, b, zs), zs)) > 1e-6


def test_orbit_count(octagon):
    assert orbit_counts(octagon, 0.0j, 0.0j, 0.9 * D0)[0] == 1
    # all eight generators and their inverses displace exactly d0
    assert orbit_counts(octagon, 0.0j, 0.0j, D0 + 1e-6)[0] == 9
    g = octagon.generators[3]
    z = 0.2 + 0.1j
    assert orbit_counts(octagon, 0.0j, g.apply(z), 2.0)[0] \
        == orbit_counts(octagon, 0.0j, z, 2.0)[0]


def test_ball_terms_match_elements(octagon):
    ball = enumerate_ball(octagon, 0.0j, 6.0)
    zs = random_disc_points(np.random.default_rng(3), 5)
    gz, den = ball.terms(zs)
    assert gz.shape == den.shape == (len(ball), 5)
    for i, (a, b) in enumerate(zip(ball.alphas, ball.betas)):
        g = GroupElement(a, b)
        assert np.array_equal(gz[i], g.apply(zs))
        np.testing.assert_allclose(den[i] ** -2, g.jac(zs), rtol=1e-14)
    gz0, den0 = ball.terms(zs[0])
    assert np.array_equal(gz0, gz[:, 0]) and np.array_equal(den0, den[:, 0])


def test_config_roundtrip(octagon, tmp_path):
    text = config_text(octagon)
    back = from_config_text(text)
    assert back.name == octagon.name
    for g, h in zip(back.generators, octagon.generators):
        assert abs(g.alpha - h.alpha) + abs(g.beta - h.beta) < 1e-15
    assert back.relators == octagon.relators
    path = tmp_path / "group.cfg"
    path.write_text(text)
    assert len(load_group(str(path)).generators) == 8


_generators = st.lists(
    st.builds(lambda t, th, ph: GroupElement(math.cosh(t) * np.exp(1j * th),
                                             math.sinh(t) * np.exp(1j * ph)),
              st.floats(0.0, 4.0), st.floats(-4.0, 4.0),
              st.floats(-4.0, 4.0)),
    max_size=5)
_letters = st.integers(-5, 5).filter(bool)


@settings(deadline=None)
@given(_generators, st.lists(st.lists(_letters, max_size=8), max_size=3),
       st.text("abcxyz0189-_. ", max_size=12).map(str.strip))
def test_config_text_roundtrip_property(gens, relators, name):
    group = FuchsianGroup(gens, [tuple(w) for w in relators], name=name)
    back = from_config_text(config_text(group))
    assert (back.name, back.relators) == (name, group.relators)
    assert [(g.alpha, g.beta) for g in back.generators] \
        == [(g.alpha, g.beta) for g in gens]


def test_config_errors():
    with pytest.raises(ConfigError, match="line 2"):
        from_config_text("name = x\ngenerator.1 = 1.0 oops 0 0\n")
    with pytest.raises(ConfigError):
        from_config_text("generator.0 = 1.5 0 0 0\n")   # not SU(1,1)
    # a misspelled key is an error, not a group with a generator fewer
    with pytest.raises(ConfigError, match="line 2: unknown key 'generater.1'"):
        from_config_text("generator.0 = 1 0 0 0\ngenerater.1 = 1 0 0 0\n")
    # a repeated key is an error, not a silent overwrite
    with pytest.raises(ConfigError, match="line 2: repeated key 'generator.0'"):
        from_config_text("generator.0 = 1 0 0 0\ngenerator.0 = 1 0 0 0\n")
    with pytest.raises(ConfigError, match="line 3: repeated key 'name'"):
        from_config_text("name = a\ngenerator.0 = 1 0 0 0\nname = b\n")
    # relators may repeat
    assert len(from_config_text("relator = 1\nrelator = 1\n").relators) == 2


def test_alphabet_built_once_and_checked_at_each_use():
    g = preset_genus2_octagon()
    assert g.alphabet is g.alphabet
    assert g.alphabet[0] == tuple(range(1, 9))
    # equal generators make the inverse of one letter ambiguous; loading
    # does not build the alphabet, and a failed build is not kept
    twin = from_config_text("generator.0 = 1.5 0 1.118033988749895 0\n"
                            "generator.1 = 1.5 0 1.118033988749895 0\n")
    for use in (lambda: enumerate_ball(twin, 0.0j, 1.0),
                lambda: twin.reduce_points([0.5])):
        with pytest.raises(ConfigError, match="not inverse-closed"):
            use()


def _close(a1, b1, a2, b2):
    return min(max(abs(a1 - a2), abs(b1 - b2)),
               max(abs(a1 + a2), abs(b1 + b2))) <= DEDUP_TOL


def _reference_alphabet(group):
    """FuchsianGroup.alphabet as a loop over scalar pairs: each generator,
    then each inverse unless an entry is close to it, then a scan of the
    entries for each entry's inverse."""
    entries = [(k + 1, g.alpha, g.beta)
               for k, g in enumerate(group.generators)]
    for k, g in enumerate(group.generators):
        ia, ib = np.conj(g.alpha), -g.beta
        if not any(_close(a, b, ia, ib) for _, a, b in entries):
            entries.append((-(k + 1), ia, ib))
    inv_index = np.empty(len(entries), dtype=np.int64)
    for i, (_, a, b) in enumerate(entries):
        matches = [j for j, (_, aj, bj) in enumerate(entries)
                   if _close(aj, bj, np.conj(a), -b)]
        if len(matches) != 1:
            raise ConfigError("alphabet is not inverse-closed")
        inv_index[i] = matches[0]
    return (tuple(e[0] for e in entries),
            np.array([e[1] for e in entries], dtype=complex),
            np.array([e[2] for e in entries], dtype=complex), inv_index)


def test_alphabet_matches_the_reference_loop(octagon):
    gens = octagon.generators
    g1g2 = _product(*(np.array([v]) for v in (gens[0].alpha, gens[0].beta,
                                               gens[1].alpha, gens[1].beta)))
    groups = {
        "preset": (preset_genus2_octagon(), tuple(range(1, 9))),
        "trivial": (load_group("trivial"), ()),
        "file copy": (from_config_text(config_text(octagon)),
                      tuple(range(1, 9))),
        # no generator is another's inverse, so all four inverses join
        "four": (FuchsianGroup(gens[:4]), (1, 2, 3, 4, -1, -2, -3, -4)),
        # (g1 g2)^-1 = g6 g5 is no letter, so it joins as -9
        "redundant": (FuchsianGroup(gens + [GroupElement(g1g2[0][0],
                                                         g1g2[1][0])]),
                      tuple(range(1, 10)) + (-9,)),
        # a half turn is its own inverse, up to sign
        "involution": (FuchsianGroup([GroupElement(1j, 0j)]), (1,)),
    }
    for name, (g, letters) in groups.items():
        want = _reference_alphabet(g)
        got = g.alphabet
        assert got[0] == want[0] == letters, name
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    # an inverse within 1e-10 of two entries: both builds refuse, at each use
    near = FuchsianGroup([gens[0], GroupElement(gens[0].alpha + 1e-10,
                                                gens[0].beta)])
    for _ in range(2):
        with pytest.raises(ConfigError, match="not inverse-closed"):
            _reference_alphabet(near)
        with pytest.raises(ConfigError, match="not inverse-closed"):
            near.alphabet


def test_fresh_group_builds_no_element(monkeypatch):
    # a fresh group's alphabet and D_0 check run on arrays; the scalar
    # loops they replace built 124 GroupElements, each checking SU(1,1)
    built = []
    real = GroupElement.__post_init__
    monkeypatch.setattr(GroupElement, "__post_init__",
                        lambda self: built.append(self) or real(self))
    g = load_group("genus2-octagon")
    # not vacuous: loading builds the eight generators
    assert len(built) == 8
    built.clear()
    assert g.dirichlet_at_0 and len(g.alphabet[0]) == 8
    assert built == []


def test_load_presets(trivial):
    assert load_group("genus2-octagon").name == "genus2-octagon"
    assert load_group("trivial").is_trivial
    assert trivial.is_trivial
    ball = enumerate_ball(trivial, 0.0j, 5.0)
    assert len(ball) == 1
    # a cut of a fresh ball at 0, then a cut of that larger kept ball
    g = load_group("trivial")
    for radius in (5.0, 3.0):
        ball = enumerate_ball(g, 0.2j, radius)
        assert ball.radius == radius
        assert list(zip(ball.alphas, ball.betas, ball.words,
                        ball.displacements)) == [(1.0, 0.0, (), 0.0)]


@pytest.mark.parametrize("x", [0.0j, 0.2j])
def test_finite_group_ball(x):
    g = from_config_text(ROT4)
    # every displacement lies below the radius: the build must still
    # cache the ball as complete up to the requested radius
    for radius in (2.0, 5.0, 1.0):
        ball = enumerate_ball(g, x, radius)
        assert len(ball) == 4 and ball.radius == radius
        assert np.all(ball.displacements <= radius)
    assert sorted(ball.words) == [(), (-1,), (1,), (1, 1)]


def test_finite_group_injectivity_radius():
    # every displacement in ROT4's ball at 0 is 0; ties keep BFS order, so
    # the identity, the BFS root, comes first and the minimum skips it
    g = from_config_text(ROT4)
    assert injectivity_radius(g, 0.0j) == 0.0
    for x, want in [(0.2j, 0.29052365066221064),
                    (0.3 + 0.1j, 0.47844096076519427)]:
        assert injectivity_radius(g, x) == want
        # the quarter turns move x least: rho(x, ix) / 2 is
        # artanh(|x| sqrt 2 / sqrt(1 + |x|^4))
        s = abs(x)
        assert want == pytest.approx(
            math.atanh(s * math.sqrt(2.0) / math.sqrt(1.0 + s ** 4)),
            rel=1e-14)
