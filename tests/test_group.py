"""Fuchsian group arithmetic, enumeration and the genus-2 preset."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discforms.errors import BudgetExceeded, ConfigError
from discforms.geometry import distance, mobius_apply
from discforms.group import (
    DEDUP_MAX_RADIUS, FuchsianGroup, GroupElement, _accept, _reduce_word,
    _SeenKeys, enumerate_ball, from_config_text, load_group, orbit_count,
    preset_genus2_octagon, to_config_text,
)

from conftest import random_disc_points

D0 = 2.0 * math.acosh(1.0 + math.sqrt(2.0))   # preset generator displacement


def test_preset_relator(octagon):
    assert max(octagon.relator_residuals()) < 1e-8


def test_preset_generators_symmetric(octagon):
    disps = [g.displacement() for g in octagon.generators]
    assert len(disps) == 8
    assert max(disps) - min(disps) < 1e-10
    assert disps[0] == pytest.approx(D0, abs=1e-12)
    # orbit of 0: eight points at equal angles k pi/4
    pts = np.array([g.apply(0.0j) for g in octagon.generators])
    ang = np.sort(np.angle(pts))
    assert np.max(np.abs(np.diff(ang) - math.pi / 4)) < 1e-10


def test_word_reduction_and_inverse(octagon):
    g = octagon.element_from_word((1, 2, -2, 3))
    assert g.word == (1, 3)
    gi = g.inverse()
    assert g.compose(gi).is_identity()
    assert gi.word == (-3, -1)


_words = st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4]),
                  max_size=30)


@given(_words)
def test_reduce_word_property(word):
    reduced = _reduce_word(word)
    assert _reduce_word(reduced) == reduced
    assert all(a != -b for a, b in zip(reduced, reduced[1:]))
    inverse = tuple(-l for l in reversed(word))
    assert _reduce_word(tuple(word) + inverse) == ()


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
            g = octagon.element_from_word(w)
            res = min(abs(g.alpha - a) + abs(g.beta - b),
                      abs(g.alpha + a) + abs(g.beta + b))
            assert res < 1e-9


def test_ball_growth_rate(octagon):
    # N(R) ~ c e^R for a cocompact group (area growth); ratios within 2x
    counts = [len(enumerate_ball(octagon, 0.0j, r)) for r in (4.0, 6.0, 8.0)]
    for n1, n2 in zip(counts, counts[1:]):
        ratio = n2 / n1
        assert math.exp(2.0) / 2.0 < ratio < math.exp(2.0) * 2.0


def test_ball_huber_count():
    # Huber: N(R) = (cosh R - 1)/2 + O(e^{2R/3}) for a closed genus-2
    # surface (area 4 pi); the octagon gives 97, 793 and 5,433.  A fresh
    # group per radius, so each count comes from a build, not the cache.
    for r in (6.0, 8.0, 10.0):
        n = len(enumerate_ball(preset_genus2_octagon(), 0.0j, r))
        assert abs(n - (math.cosh(r) - 1.0) / 2.0) <= math.exp(2.0 * r / 3.0)


def test_restrict_matches_mask():
    # restriction equals the selection displacement <= R element for
    # element, also at radii inside bins where displacements are unsorted
    g = preset_genus2_octagon()
    enumerate_ball(g, 0.0j, 10.0)
    (full,) = g._ball_cache.values()
    d = full.displacements
    unsorted = np.flatnonzero(np.diff(d) < 0)
    assert len(unsorted) > 0
    edges = [d[i + k] + e for i in np.r_[unsorted[:3], unsorted[-3:]]
             for k in (0, 1) for e in (-1e-13, 0.0, 1e-13)]
    words = full.words
    gaps = 0
    for r in [6.0, 8.0, 10.0] + edges:
        keep = d <= r
        gaps += not keep[:np.count_nonzero(keep)].all()
        ball = full.restrict(r)
        assert np.array_equal(ball.alphas, full.alphas[keep])
        assert np.array_equal(ball.betas, full.betas[keep])
        assert np.array_equal(ball.displacements, d[keep])
        assert ball.words == [w for w, k in zip(words, keep) if k]
    assert gaps > 0   # some radius selects a non-prefix


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


def test_ball_dedup_radius_limit():
    g = preset_genus2_octagon()
    with pytest.raises(BudgetExceeded, match="dedup"):
        enumerate_ball(g, 0.0j, DEDUP_MAX_RADIUS - D0 + 0.01)
    with pytest.raises(BudgetExceeded, match="dedup"):
        enumerate_ball(g, 0.0j, 5.0, margin=DEDUP_MAX_RADIUS)
    # just inside the limit the build starts (and meets the element cap)
    with pytest.raises(BudgetExceeded, match="cap"):
        enumerate_ball(g, 0.0j, DEDUP_MAX_RADIUS - D0 - 0.01,
                       max_elements=100)
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


def test_ball_budget():
    g = preset_genus2_octagon()
    with pytest.raises(BudgetExceeded):
        enumerate_ball(g, 0.0j, 14.0, max_elements=100)


def test_fixed_point_free(octagon, rng):
    ball = enumerate_ball(octagon, 0.0j, 6.0)
    zs = random_disc_points(rng, 100, r_max=0.7)
    for g, _ in ball.elements[1:]:
        assert np.min(distance(g.apply(zs), zs)) > 1e-6


def test_orbit_count(octagon):
    assert orbit_count(octagon, 0.0j, 0.0j, 0.9 * D0) == 1
    # all eight generators and their inverses displace exactly d0
    assert orbit_count(octagon, 0.0j, 0.0j, D0 + 1e-6) == 9
    g = octagon.generators[3]
    z = 0.2 + 0.1j
    assert orbit_count(octagon, 0.0j, g.apply(z), 2.0) \
        == orbit_count(octagon, 0.0j, z, 2.0)


def test_ball_terms_match_elements(octagon):
    ball = enumerate_ball(octagon, 0.0j, 6.0)
    zs = random_disc_points(np.random.default_rng(3), 5)
    gz, den = ball.terms(zs)
    assert gz.shape == den.shape == (len(ball), 5)
    for i, (g, _) in enumerate(ball.elements):
        assert np.array_equal(gz[i], g.apply(zs))
        np.testing.assert_allclose(den[i] ** -2, g.jac(zs), rtol=1e-14)
    gz0, den0 = ball.terms(zs[0])
    assert np.array_equal(gz0, gz[:, 0]) and np.array_equal(den0, den[:, 0])


def test_config_roundtrip(octagon, tmp_path):
    text = to_config_text(octagon)
    back, _ = from_config_text(text)
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
    back, extra = from_config_text(to_config_text(group))
    assert (back.name, back.relators, extra) == (name, group.relators, {})
    assert [(g.alpha, g.beta) for g in back.generators] \
        == [(g.alpha, g.beta) for g in gens]


def test_config_errors():
    with pytest.raises(ConfigError, match="line 2"):
        from_config_text("name = x\ngenerator.1 = 1.0 oops 0 0\n")
    with pytest.raises(ConfigError):
        from_config_text("generator.0 = 1.5 0 0 0\n")   # not SU(1,1)


def test_load_presets(trivial):
    assert load_group("genus2-octagon").name == "genus2-octagon"
    assert load_group("trivial").is_trivial
    assert trivial.is_trivial
    ball = enumerate_ball(trivial, 0.0j, 5.0)
    assert len(ball) == 1
    # a fresh build, then a restriction of that larger cached ball
    g = load_group("trivial")
    for radius in (5.0, 3.0):
        ball = enumerate_ball(g, 0.2j, radius)
        assert ball.radius == radius
        assert [(e.alpha, e.beta, e.word, d) for e, d in ball.elements] \
            == [(1.0, 0.0, (), 0.0)]


# rotation by pi/2 about 0: a finite group of order 4 in PSU(1,1)
ROT4 = "generator.0 = 0.7071067811865476 0.7071067811865476 0.0 0.0\n"


@pytest.mark.parametrize("x", [0.0j, 0.2j])
def test_finite_group_ball(x):
    g = from_config_text(ROT4)[0]
    # every displacement lies below the radius: the build must still
    # cache the ball as complete up to the requested radius
    for radius in (2.0, 5.0, 1.0):
        ball = enumerate_ball(g, x, radius)
        assert len(ball) == 4 and ball.radius == radius
        assert np.all(ball.displacements <= radius)
    assert sorted(ball.words) == [(), (-1,), (1,), (1, 1)]
