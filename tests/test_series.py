"""Poincare series values, tails, norms and the integral inequalities."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hypothesis import example, given, settings, strategies as st

from discforms import cli, kernels, series
from discforms.domain import dirichlet_domain
from discforms.errors import (
    QuadratureDiverged, TargetNotReached, UnboundedSeed,
)
from discforms.series import (
    SeedFunction, exact_sum, lemma22_check, norm_pl, poincare_eval,
    polynomial_approx, weight_sum,
)
from discforms.geometry import den_power
from discforms.group import enumerate_ball

from conftest import random_disc_points

ONE = SeedFunction.poly([1.0])
Z = SeedFunction.poly([0.0, 1.0])


def test_seed_kinds():
    assert ONE(0.3 + 0.1j) == 1.0
    f = SeedFunction.rational([1.0], [2.0, -1.0])     # 1/(2 - z)
    assert f(0.0) == pytest.approx(0.5)
    with pytest.raises(UnboundedSeed):
        SeedFunction.rational([1.0], [1.0, -1.0])     # pole at 1
    for den in ([], [0.0], [0.0, 0.0]):               # no denominator
        with pytest.raises(UnboundedSeed, match="non-zero coefficient"):
            SeedFunction.rational([1.0], den)


def test_seed_call_is_eval_into():
    # f(z) fills a fresh array through eval_into, so it has eval_into's
    # bits and is that array itself, not a view; 0-d input gives a scalar.
    # np.polyval takes other steps and agrees to rounding.
    zs = random_disc_points(np.random.default_rng(11), 200, 0.9)
    for f in (Z, SeedFunction.poly([1.0, -0.5j, 0.25]),
              SeedFunction.rational([1.0, 0.3], [2.0, -1.0])):
        got = f(zs)
        out, scratch = np.empty_like(zs), np.empty_like(zs)
        assert got.tobytes() == f.eval_into(zs, out, scratch).tobytes()
        assert got.base is None
        want = np.polyval(f.coeffs[::-1], zs)
        if f.kind == "rational":
            want /= np.polyval(f.den_coeffs[::-1], zs)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        one = f(complex(zs[0]))
        assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
        assert one == pytest.approx(got[0], rel=1e-15)


def test_norm_pl_judges_the_halving_error_against_the_value():
    # 1/(1.0001 - z)^2 peaks within 1e-4 of the circle, finer than the
    # grid: at l = 0 the halving error is 12% of the value, and the weight
    # K^-1 damps the peak to 1.4e-4 of it
    def f(z):
        return 1.0 / (1.0001 - z) ** 2
    with pytest.raises(QuadratureDiverged, match="exceeds 1% of the value"):
        norm_pl(f, 1, 0.0)
    value, err = norm_pl(f, 1, 1.0)
    assert 0.0 < err < 1e-3 * value


def test_norm_oracles():
    assert norm_pl(ONE, 1, 0.0)[0] == pytest.approx(math.pi, rel=1e-3)
    # Int (pi (1-|z|^2)^2) d(lambda) = pi^2/3
    assert norm_pl(ONE, 1, 1.0)[0] == pytest.approx(math.pi ** 2 / 3, rel=1e-4)
    # monomial Beta-integral oracle: ||z^k||_{2,l}^2 = pi^(l+1) B(k+1, 2l+1)
    for k, l in ((1, 0.0), (2, 1.0), (3, 2.0)):
        f = SeedFunction.poly([0.0] * k + [1.0])
        oracle = math.pi ** (l + 1) * beta_fn(k + 1, 2 * l + 1)
        assert norm_pl(f, 2, l)[0] == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("l", [0.0, 1.0, 2.5])
def test_norm_radial_factor_per_radius(l):
    # K^-l is taken once per radius; per node, from |z|, the integral
    # agrees to rounding
    f = SeedFunction.rational([1.0], [2.0, -1.0])

    def per_node(z, w, r):
        return (np.abs(f(z)) * (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** l
                * w)
    want = series._polar_sum(800, 512, per_node, float)
    assert norm_pl(f, 1, l)[0] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_norm_homogeneity_and_validation():
    f = SeedFunction.poly([0.0, 3.0])
    assert norm_pl(f, 1, 0.5)[0] == pytest.approx(
        3.0 * norm_pl(Z, 1, 0.5)[0], rel=1e-12)
    with pytest.raises(ValueError):
        norm_pl(ONE, 3, 0.0)
    with pytest.raises(ValueError):
        norm_pl(ONE, 1, -1.0)


def test_weight_sum_trivial(trivial):
    sv = weight_sum(trivial, 0.0j, 0.2 + 0.1j, 5.0)
    assert sv.value == 1.0
    assert sv.tail_estimate == 0.0
    assert sv.terms_used == 1


def test_weight_sum_monotone(octagon):
    vals = [weight_sum(octagon, 0.0j, 0.1j, r).value for r in (4.0, 6.0, 8.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_weight_sum_self_consistency(octagon):
    a = weight_sum(octagon, 0.0j, 0.0j, 10.0)
    b = weight_sum(octagon, 0.0j, 0.0j, 12.0)
    assert abs(b.value - a.value) <= a.tail_estimate
    assert b.tail_estimate < a.tail_estimate


def _mask_shell_tail(displacements, abs_terms, radius):
    """The shell tail by boolean masks over every |term|: the reference
    for _shell_tail's slices."""
    if len(displacements) <= 1 or radius <= 2 * series.SHELL_WIDTH:
        return 0.0 if len(displacements) <= 1 else float(np.sum(abs_terms))
    hi = displacements > radius - series.SHELL_WIDTH
    mid = (displacements > radius - 2 * series.SHELL_WIDTH) & ~hi
    s2 = float(np.sum(abs_terms[hi]))
    s1 = float(np.sum(abs_terms[mid]))
    if s2 == 0.0:
        return 0.0
    if s1 <= s2:
        return s2
    q = s2 / s1
    return s2 * q / (1.0 - q)


def _shell_tail_cases(octagon):
    """(displacements, radius) pairs: the R = 10 ball cut at radii off and
    on its displacements (d + 1 and d + 2, where the shell edge, radius
    less one or two widths, is d to the bit), and small sorted sets: R <=
    2 widths, an empty last shell, an empty middle shell, one element."""
    d = enumerate_ball(octagon, 0.0j, 10.0).displacements
    cases = [(d[:np.searchsorted(d, r, "right")], r)
             for r in (2.0, 2.5, 3.5, 6.0, 7.25, 8.0, 10.0)]
    on = [(r, e) for e in d[::97] for r in (e + 1.0, e + 2.0)
          if r <= 10.0 and e in (r - 1.0, r - 2.0)]
    assert len(on) >= 20
    cases += [(d[:np.searchsorted(d, r, "right")], r) for r, _ in on]
    small = np.array([0.0, 1.5, 2.5, 2.5, 3.5, 3.5, 4.0, 4.5])
    cases += [(small, r) for r in (0.5, 2.0, 4.5, 5.5, 6.5, 7.0)]
    cases += [(small[:1], 4.5), (small[:0], 4.5)]
    return cases


def test_shell_tail_slices_are_the_masks(octagon):
    # the shells as slices of the sorted displacements, found by one
    # searchsorted "right" (d > edge, as the masks read), give the masks'
    # tail to the bit; |terms| is taken from the first slice on only
    rng = np.random.default_rng(11)
    for d, radius in _shell_tail_cases(octagon):
        n = len(d)
        for terms in (rng.standard_normal(2 * n).view(complex),
                      rng.uniform(0.0, 1.0, n) * np.exp(-d)):
            want = _mask_shell_tail(d, np.abs(terms), radius)
            got = series._shell_tail(d, terms, radius)
            assert got.hex() == want.hex(), (n, radius)


def test_poincare_trivial(trivial):
    z = 0.3 - 0.2j
    sv = poincare_eval(trivial, Z, 4, z, 5.0)
    assert sv.value == z
    assert sv.terms_used == 1


def test_poincare_reordering(octagon, rng):
    # exact_sum (fsum's correctly rounded, hence order-free, value) vs
    # plain sums in random orders
    z = 0.0j
    ball = enumerate_ball(octagon, 0.0j, 8.0)
    sv = poincare_eval(octagon, ONE, 4, z, 8.0, ball=ball)
    den = np.conj(ball.betas) * z + np.conj(ball.alphas)
    terms = ONE(1.0) * den ** -8
    for _ in range(5):
        perm = rng.permutation(len(terms))
        brute = complex(np.sum(terms[perm]))
        assert abs(brute - sv.value) < 1e-13


def test_automorphy_residual(octagon, rng):
    from discforms.series import automorphy_residual
    seeds = [ONE, Z, SeedFunction.poly([0.0, 0.0, 1.0])]
    zs = random_disc_points(rng, 4, r_max=0.4)
    for m in (3, 4, 6):
        for f in seeds:
            for z in zs[:2]:
                g = octagon.generators[int(rng.integers(8))]
                res, pz, pgz = automorphy_residual(octagon, f, m, g, z, 9.0)
                assert res <= 2.0 * max(pz.tail_estimate, pgz.tail_estimate)


def test_lemma22(octagon):
    rep = lemma22_check(octagon, Z, 4, radius=6.0)
    assert rep.holds
    assert rep.unfolding_rel_gap < 0.01
    partial = [v for _, v in rep.partial_lhs]
    assert all(a <= b for a, b in zip(partial, partial[1:]))
    # a shell's sum is the left side truncated there, to the bit
    for s in (4.0, 5.0):
        assert dict(rep.partial_lhs)[s] == lemma22_check(octagon, Z, 4, s).lhs
    # report both sides, never equality
    assert rep.lhs > 0 and rep.rhs > 0


def test_unfolding_is_an_identity(octagon):
    # 1 - |gamma z|^2 = (1 - |z|^2)|den|^-2 for an SU(1,1) pair, so
    # unfolding lemma22's left side onto the tiles gamma(F) gives its own
    # integrand term by term: unfolded is lhs and unfolding_rel_gap 0.0.
    # The stored pairs are products of generators, whose |alpha|^2 -
    # |beta|^2 misses 1 by a few ulps of |alpha|^2: that bounds the gap
    # (1.2 ulps of |alpha|^2 at most here)
    nodes = dirichlet_domain(octagon, spacing=0.01).nodes
    ball = enumerate_ball(octagon, 0.0j, 6.0)
    gz, den = ball.terms(nodes)
    got = 1.0 - np.abs(gz) ** 2
    want = (1.0 - np.abs(nodes) ** 2) / np.abs(den) ** 2
    scale = np.finfo(float).eps * np.abs(ball.alphas[:, None]) ** 2
    assert len(ball) > 50 and np.max(np.abs(got - want) / scale) <= 4.0
    rep = lemma22_check(octagon, Z, 4, 6.0)
    assert rep.unfolded == rep.lhs and rep.unfolding_rel_gap == 0.0


def test_polynomial_approx(monkeypatch):
    res = polynomial_approx(Z, 1.0, 1e-6)
    assert res.degree == 1 and res.achieved_norm == 0.0
    with pytest.raises(ValueError, match="^dilation: "):
        polynomial_approx(Z, 1.0, 1e-6, dilation=0.5)
    f = SeedFunction.rational([1.0], [2.0, -1.0])     # 1/(2 - z)
    res = polynomial_approx(f, 1.0, 1e-3)
    assert res.achieved_norm < 1e-3
    assert norm_pl(lambda z: f(z) - res.poly(z), 1, 1.0,
                   grid=(400, 256))[0] < 1e-3
    monkeypatch.setattr(series, "APPROX_DEGREE_CAP", 4)
    with pytest.raises(TargetNotReached, match="degree cap 4 hit"):
        polynomial_approx(f, 1.0, 1e-12)


def test_polynomial_approx_counts_the_quadrature_error(monkeypatch):
    # a degree is taken once norm + halving error < delta: reported as
    # large as the norm, the error moves 1/(2 - z) at delta 0.005 from
    # degree 4 (norm 0.0037) to 8
    f = SeedFunction.rational([1.0], [2.0, -1.0])
    assert polynomial_approx(f, 1.0, 0.005).degree == 4
    real = series.norm_pl
    monkeypatch.setattr(series, "norm_pl",
                        lambda *a, **k: (real(*a, **k)[0],) * 2)
    assert polynomial_approx(f, 1.0, 0.005).degree == 8


def test_polynomial_approx_downstream(octagon, rng):
    # |P_m(f) - P_m(h)| <= sup|f-h| * (truncated weight-m majorant)
    f = SeedFunction.rational([1.0], [2.0, -1.0])
    res = polynomial_approx(f, 1.0, 1e-4)
    # sup |f - h| over 64 radii x 4096 angles of the closed disc
    zs = np.linspace(0, 0.999, 64)[:, None] \
        * np.exp(2j * np.pi * np.arange(4096) / 4096)[None, :]
    sup = float(np.max(np.abs(f(zs) - res.poly(zs))))
    for z in random_disc_points(rng, 10, r_max=0.5):
        pf = poincare_eval(octagon, f, 4, z, 8.0)
        ph = poincare_eval(octagon, res.poly, 4, z, 8.0)
        ws = weight_sum(octagon, 0.0j, z, 8.0)
        assert abs(pf.value - ph.value) <= sup * (ws.value + ws.tail_estimate)


# ---------------------------------------------------------------- exact_sum

def _outcome(fn, x):
    """Type and bits of fn(x) (signs of zero and NaN included), or the
    error type."""
    try:
        v = fn(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return type(v), *(math.copysign(1.0, p) if math.isnan(p) else p.hex()
                      for p in (complex(v).real, complex(v).imag))


def _fsum_oracle(x):
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return complex(math.fsum(x.real), math.fsum(x.imag))
    return math.fsum(x)


def _assert_fsum_bits(x):
    assert _outcome(exact_sum, x) == _outcome(_fsum_oracle, x)


@settings(deadline=None, max_examples=120)
@given(n=st.integers(1, 10 ** 5), ends=st.lists(st.integers(-1074, 999),
                                                min_size=2, max_size=2),
       cancel=st.floats(0.0, 1.0), complex_=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=10 ** 5, ends=[-1074, 999], cancel=1.0, complex_=False, seed=0)
@example(n=10 ** 5, ends=[-1074, -1000], cancel=0.5, complex_=True, seed=1)
@example(n=10 ** 5, ends=[-120, 0], cancel=0.0, complex_=True, seed=2)
@example(n=3, ends=[-1074, -1074], cancel=1.0, complex_=False, seed=3)
def test_exact_sum_is_fsum_bit_for_bit(n, ends, cancel, complex_, seed):
    # magnitudes 2^lo .. 2^hi, subnormals below 2^-1022, and a share
    # `cancel` of the terms followed somewhere by their negatives (all of
    # them: an exact zero total, whose sign fsum decides)
    rng = np.random.default_rng(seed)
    size = 2 * n if complex_ else n
    e = rng.integers(min(ends), max(ends) + 1, size)
    x = np.ldexp(rng.uniform(1.0, 2.0, size) * rng.choice([-1.0, 1.0], size),
                 e)
    if complex_:
        x = x.view(complex)
    x = np.concatenate([x, -x[:int(cancel * len(x))]])
    _assert_fsum_bits(x[rng.permutation(len(x))])


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(width=64), max_size=40), st.booleans())
def test_exact_sum_matches_fsum_on_any_floats(xs, complex_):
    # every float, inf and NaN included: the same bits or the same error
    x = np.array(xs, dtype=float)
    if complex_:
        x = x[:len(x) // 2 * 2].view(complex)
    _assert_fsum_bits(x)


@pytest.mark.parametrize("xs", [
    [], [0.0], [-0.0], [-0.0, -0.0], [1.0, -1.0], [5e-324, -5e-324],
    [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106], [3.0, 2.0 ** -52],
    [1.0, -(2.0 ** -54)], [2.0 ** -1022, -(2.0 ** -1074)],
    [math.inf], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
    [1e308, 1e308], [1e308, 1e308, -1e308], [2.0 ** 995, 2.0 ** 995],
    [0.99 * 2.0 ** 1020] * 17 + [-0.99 * 2.0 ** 1020] * 16,
    [complex(math.inf, 1.0), 1.0], [complex(0.0, -0.0)], [1j, -1j],
    [complex(1.0, 2.0 ** -53), complex(2.0 ** -53, 1.0)]])
def test_exact_sum_edge_cases(xs):
    x = np.array(xs, dtype=complex if any(map(np.iscomplexobj, xs))
                 else float)
    _assert_fsum_bits(x)


def _fsum_lengths(monkeypatch):
    """Record the length of every sequence math.fsum is given from now
    on: exact_sum's level sums, or the terms where it falls back."""
    lengths, fsum = [], math.fsum

    def counted(xs):
        xs = list(xs)
        lengths.append(len(xs))
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counted)
    return lengths


@pytest.mark.parametrize("view", [
    lambda b: b, lambda b: b.view(complex), lambda b: b[::3],
    lambda b: b.view(complex)[::2], lambda b: b[:, None],
    lambda b: b.view(complex)[:, None]], ids=[
    "real", "complex", "strided", "strided-complex", "n1", "n1-complex"])
def test_exact_sum_leaves_its_input_alone(view):
    # the levels work on a copy: a contiguous real input is the array
    # exact_sum's views start from, so writing through them would change
    # the caller's terms
    rng = np.random.default_rng(13)
    base = np.ldexp(rng.standard_normal(4002), rng.integers(-60, 1, 4002))
    before = base.tobytes()
    x = view(base)
    want = _outcome(_fsum_oracle, np.ravel(x))
    assert _outcome(exact_sum, x) == want
    assert base.tobytes() == before


@pytest.mark.parametrize("n", [50, 793, 5433])
@pytest.mark.parametrize("complex_", [False, True])
def test_exact_sum_overflow_guard_boundary(monkeypatch, n, complex_):
    # terms below 2^(1000 - M), 2^M >= n + 2, are extracted in levels, and
    # fsum sums the level sums; from the guard on fsum sums the terms
    guard = 2.0 ** (1000 - (n + 1).bit_length())
    rng = np.random.default_rng(n)
    for top, extracted in ((np.nextafter(guard, 0.0), True), (guard, False),
                           (np.nextafter(guard, math.inf), False)):
        x = rng.uniform(-1.0, 1.0, 2 * n) * top
        x[0] = -top
        x[1::7] *= 2.0 ** -70
        x = x.view(complex) if complex_ else x[:n]
        want = _outcome(_fsum_oracle, x)
        lengths = _fsum_lengths(monkeypatch)
        assert _outcome(exact_sum, x) == want
        assert (max(lengths) <= series.LEVEL_CAP if extracted
                else lengths == [n] * (1 + complex_))
        monkeypatch.undo()


def _count_levels(monkeypatch):
    """Count the extraction levels exact_sum runs from now on: each level
    calls np.add once, and no other code of the series module does."""
    levels = []

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def add(self, *args, **kwargs):
            levels.append(1)
            return np.add(*args, **kwargs)

    monkeypatch.setattr(series, "np", Counted())
    return levels


def _exit_tries(levels, width):
    """What fsum is given by the exit's tries over `levels` levels: from
    the second level on, the level sums and -b, then b, per part."""
    return [n + 1 for n in range(2, levels + 1) for _ in range(2 * width)]


def test_exact_sum_level_cap(monkeypatch):
    # top + ulp(top)/2 + tiny sits on a rounding midpoint until tiny is
    # extracted, so no try of the exit succeeds before.  With n = 3 (M = 3)
    # level L takes the bits down to 2^-t top, t = 52 - M + (L - 1)(53 - M):
    # at t = reach the remainders are zero after LEVEL_CAP levels and fsum
    # rounds their sums; one bit past it fsum sums the terms
    top, cap = 2.0 ** 900, series.LEVEL_CAP
    half = math.ulp(top) / 2
    reach = 49 + (cap - 1) * 50
    for t, last in ((reach, cap), (reach + 1, 3)):
        tiny = -math.ldexp(top, -t)
        for x in (np.array([top, half, tiny]),
                  np.array([complex(top, 1.0), half, tiny])):
            width = 1 + np.iscomplexobj(x)
            want = _outcome(_fsum_oracle, x)
            lengths = _fsum_lengths(monkeypatch)
            assert _outcome(exact_sum, x) == want
            assert lengths == _exit_tries(cap, width) + [last] * width
            monkeypatch.undo()
    # a spread over the whole range about a midpoint, decided by terms
    # below 2^-300 that no level reaches: fsum sums the terms after every
    # try fails; and an exact zero total, whose sign fsum takes from the
    # terms after the level sums (one level, so no try)
    rng = np.random.default_rng(5)
    spread = np.ldexp(rng.uniform(-1.0, 1.0, 1000),
                      rng.integers(-1074, 880, 1000))
    big = spread[np.abs(spread) > 2.0 ** -300]
    x = np.concatenate([[top, half], spread, -big])
    x = x[rng.permutation(len(x))]
    for terms, want_lengths in (
            (x, _exit_tries(cap, 1) + [len(x)]),
            (np.array([1.0, -0.5, -0.5]), [1, 3])):
        want = _outcome(_fsum_oracle, terms)
        lengths = _fsum_lengths(monkeypatch)
        assert _outcome(exact_sum, terms) == want
        assert lengths == want_lengths
        monkeypatch.undo()


@settings(deadline=None, max_examples=200)
@given(x=st.floats(2.0 ** -1000, 2.0 ** 990), sign=st.sampled_from([-1, 1]),
       side=st.sampled_from([-1, 1]),
       steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 300)),
                      max_size=4),
       pad=st.integers(0, 3000), complex_=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(x=1.0, sign=1, side=1, steps=[], pad=0, complex_=False, seed=0)
@example(x=1.0, sign=-1, side=-1, steps=[(1, 300)], pad=3000,
         complex_=True, seed=1)
@example(x=2.0 ** -1000, sign=1, side=1, steps=[(-1, 80)], pad=10,
         complex_=False, seed=2)
def test_exact_sum_at_a_rounding_midpoint(x, sign, side, steps, pad,
                                          complex_, seed):
    # x and half its ulp put the sum on a rounding midpoint, and terms of
    # +-c 2^-k ulp(x) (c up to 3) decide the direction, or leave it on the
    # midpoint, where fsum rounds to even; pad terms and their negatives
    # cancel exactly but fill the levels
    rng = np.random.default_rng(seed)
    x *= sign
    u = math.ulp(x)
    decide = [c * math.ldexp(u, -k) for c, k in steps]
    e = math.frexp(x)[1]
    noise = np.ldexp(rng.uniform(-1.0, 1.0, pad),
                     rng.integers(max(e - 200, -1074), e, pad))
    terms = np.concatenate([[x, side * u / 2], decide, noise, -noise])
    if complex_:
        terms = terms + 1j * terms[rng.permutation(len(terms))]
    _assert_fsum_bits(terms[rng.permutation(len(terms))])


@settings(deadline=None, max_examples=150)
@given(zeros=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      max_size=30),
       other=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30),
       imag_zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(zeros=[-0.0], other=[1.0], imag_zero=False, seed=0)
@example(zeros=[-0.0, -0.0], other=[2.0 ** -60, 1.0], imag_zero=True,
         seed=0)
@example(zeros=[1e300, 3.0, 2.0 ** -1074], other=[1.0, 2.0 ** -53],
         imag_zero=False, seed=0)
def test_exact_sum_zero_total_in_one_part(zeros, other, imag_zero, seed):
    # one part cancels to an exact zero (all -0.0 terms give -0.0), so no
    # try of the exit succeeds while the other part, decided early, waits;
    # fsum takes that part's sign from its terms
    rng = np.random.default_rng(seed)
    zero = np.array(zeros + [-z for z in zeros if z != 0.0] or [0.0])
    zero = zero[rng.permutation(len(zero))]
    rest = np.resize(np.array(other), len(zero))
    # real and imaginary columns side by side keep every sign of zero
    cols = [rest, zero] if imag_zero else [zero, rest]
    terms = np.stack(cols, axis=1).ravel().view(complex)
    _assert_fsum_bits(terms)


@pytest.mark.parametrize("k, late", [(40, 3), (120, 4), (250, 7), (600, 15)])
def test_complex_parts_decided_at_different_levels(monkeypatch, k, late):
    # the real part sits 2^-k ulp off a midpoint, so its rounding is decided
    # at level `late` (n = 200, M = 8: each level takes 45 more bits); the
    # imaginary part is decided at the second.  The sum runs the levels of
    # its slower part, and each part keeps fsum's bits
    rng = np.random.default_rng(k)
    x = 1.0 + rng.uniform()
    real = np.concatenate([[x, math.ulp(x) / 2, math.ldexp(math.ulp(x), -k)],
                           rng.uniform(-1.0, 1.0, 97)])
    real = np.concatenate([real, -real[3:]])
    imag = rng.uniform(-1.0, 1.0, len(real))
    alone = []
    for part in (real, imag):
        levels = _count_levels(monkeypatch)
        _assert_fsum_bits(part)
        alone.append(len(levels))
        monkeypatch.undo()
    levels = _count_levels(monkeypatch)
    _assert_fsum_bits(real + 1j * imag)
    _assert_fsum_bits(imag + 1j * real)
    assert alone == [late, 2]
    assert len(levels) == 2 * late


@pytest.mark.parametrize("e", range(-926, -918))
def test_exact_sum_exit_at_the_subnormal_guard(monkeypatch, e):
    # n = 2 (M = 2): the second level's b is 2^(M-53) 2^(e+M) 2^(M-53) =
    # 2^(e-100) for |x| in [2^(e-1), 2^e), normal from e = -922 on.  There
    # the sum stops after two levels; below, no try runs, and the
    # remainders of y, whose bits reach 2^(e-133), are zero after three
    x = math.ldexp(1.5, e - 1)
    y = math.ldexp(1.0 + 2.0 ** -52 * 0x5A5A5A5A5A5A5, e - 81)
    for terms in ([x, y], [x, -y], [-x, y]):
        want = _outcome(_fsum_oracle, terms)
        lengths = _fsum_lengths(monkeypatch)
        levels = _count_levels(monkeypatch)
        assert _outcome(exact_sum, np.array(terms)) == want
        assert (lengths, len(levels)) == (([3, 3], 2) if e >= -922
                                          else ([3], 3))
        monkeypatch.undo()
    # on a midpoint below the guard: no try runs, and the levels decide
    half = math.ulp(x) / 2
    for tiny in (2.0 ** -1074, -(2.0 ** -1074), 0.0):
        _assert_fsum_bits(np.array([x, half, tiny]))


# levels exact_sum takes on the preset's orbit sums at z = 0.3 + 0.2j: per
# radius, poincare_eval at m = 2..6 for the seeds 1, z, z^2, then weight_sum.
# Sum_gamma gamma z j^2 cancels to 1e-6 of its terms at R >= 9, so it needs
# a third level
ORBIT_SUM_LEVELS = {6: "222 222 222 222 222 2", 7: "222 222 222 222 222 2",
                    8: "222 222 222 222 222 2", 9: "232 222 222 222 222 2",
                    10: "232 222 222 222 222 2",
                    11: "232 222 222 222 222 2"}


def test_orbit_sums_take_pinned_levels(octagon, monkeypatch):
    # a change that made orbit sums fall back to fsum, or take more levels
    # than the bits they hold need, shows here: every sum stops at the
    # exit, which fsum sees tried once per level from the second on
    seeds = [SeedFunction.poly([0.0] * k + [1.0]) for k in range(3)]
    z = 0.3 + 0.2j
    lengths = _fsum_lengths(monkeypatch)
    levels = _count_levels(monkeypatch)
    for radius, table in ORBIT_SUM_LEVELS.items():
        got = []
        for m in range(2, 7):
            for f in seeds:
                del lengths[:], levels[:]
                poincare_eval(octagon, f, m, z, float(radius))
                assert lengths == _exit_tries(len(levels), 2)
                got.append(str(len(levels)))
            got.append(" ")
        del lengths[:], levels[:]
        weight_sum(octagon, 0.0j, z, float(radius))
        assert lengths == _exit_tries(len(levels), 1)
        assert "".join(got) + str(len(levels)) == table, radius


def test_automorphy_check_samples_the_seed_sup_once(monkeypatch):
    # 20 samples at the defaults make 40 poincare_eval calls; the seed's
    # boundary sup is sampled on the first and reused, bit for bit
    boundary, calls = [], []
    seed_call = SeedFunction.__call__
    eval_ = series.poincare_eval

    def counting_call(self, z):
        boundary.append(np.shape(z) == (4096,))
        return seed_call(self, z)

    def recording_eval(group, f, m, z, radius):
        calls.append(((group, f, m, z, radius),
                      eval_(group, f, m, z, radius)))
        return calls[-1][1]

    monkeypatch.setattr(SeedFunction, "__call__", counting_call)
    monkeypatch.setattr(series, "poincare_eval", recording_eval)
    assert cli.main(["automorphy-check", "--out", os.devnull]) == 0
    assert len(calls) == 40 and sum(boundary) == 1
    for (group, f, m, z, radius), got in calls:
        fresh = SeedFunction(f.kind, f.coeffs, f.den_coeffs)
        want = eval_(group, fresh, m, z, radius)
        assert got.tail_estimate.hex() == want.tail_estimate.hex()
        assert got.value == want.value


@pytest.mark.parametrize("f", [SeedFunction.poly([0.0, 0.0, 1.0]),
                               SeedFunction.poly([1.0, 0.5j, -0.25]),
                               SeedFunction.rational([1.0, 0.3], [2.0, -1.0])],
                         ids=["z2", "quadratic", "rational"])
def test_poincare_values_bits_and_one_workspace(octagon, f):
    # the block loop writes into one workspace per call; its bits are the
    # column sums of f(gz) den^-2m built fresh per block, as before.  At
    # R = 10 the call splits 64 points into 4 x 11 + 2 x 10; no bit
    # depends on the split.
    # m = 3 takes a multiply by den between squarings; 2 and 4 do not.
    ball = enumerate_ball(octagon, 0.0j, 10.0)
    zs = random_disc_points(np.random.default_rng(7), 64, 0.5)
    for m in (2, 3, 4):
        got = series.poincare_values(octagon, f, m, zs, 10.0)
        want = np.concatenate([
            np.sum(f(gz) * den_power(den, 2 * m), axis=0) for gz, den in
            map(ball.terms, np.split(zs, [12, 24, 36, 48]))])
        assert got.tobytes() == want.tobytes()
    gz = ball.terms(zs[:5])[0]
    out, scratch = np.empty_like(gz), np.empty_like(gz)
    assert f.eval_into(gz, out, scratch) is out
    assert out.tobytes() == f(gz).tobytes()


@pytest.mark.parametrize("f", [SeedFunction.poly([0.0, 0.0, 1.0]),
                               SeedFunction.poly([1.0, 0.5j, -0.25]),
                               SeedFunction.rational([1.0, 0.3], [2.0, -1.0]),
                               SeedFunction.poly([2.5 - 1j])],
                         ids=["z2", "quadratic", "rational", "constant"])
def test_poincare_eval_writes_into_den_with_the_fresh_bits(octagon, f):
    # f(gamma z) goes into den's spent row and is multiplied by j^m in
    # place, f the left operand: the value and tail of f(gz) * jm built
    # fresh, with the masks' tail
    z = 0.3 + 0.2j
    for radius in (6.0, 10.0):
        ball = enumerate_ball(octagon, 0.0j, radius)
        gz, den = ball.terms(z)
        for m in (2, 3, 6):
            jm = den_power(den, 2 * m)
            sv = poincare_eval(octagon, f, m, z, radius)
            want = _outcome(exact_sum, f(gz) * jm)
            assert _outcome(complex, sv.value) == want
            tail = _mask_shell_tail(ball.displacements, np.abs(jm), radius)
            assert sv.tail_estimate.hex() == (f.sup_disc * tail).hex()


@pytest.mark.parametrize("radius", [8.0, 10.0])
def test_poincare_values_workspace_stays_near_2_16_terms(octagon, radius):
    # three rows of at most 2^16 complex terms for a polynomial seed: den's
    # row takes f(gz) once den_power has read it, and no block is wider
    # than step points.  Four rows, or a block of up to 2 step - 1 points,
    # would take 4.5 MB at R = 10, past the 4 MiB at which NumPy asks for
    # huge pages.  terms() adds a few ball-length temporaries
    f = SeedFunction.poly([0.0, 1.0])
    zs = random_disc_points(np.random.default_rng(5), 64, 0.5)
    ball = enumerate_ball(octagon, 0.0j, radius)
    tracemalloc.start()
    try:
        series.poincare_values(None, f, 3, zs, radius, ball=ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 16 * 16 + 4 * 16 * len(ball)


def test_rational_seed_takes_its_scratch_from_the_workspace(octagon,
                                                            monkeypatch):
    # poincare_values and lemma22_check hand the seed a block of their
    # workspace, so evaluating a rational seed allocates no block
    f = SeedFunction.rational([1.0], [2.0, -1.0])
    real, peaks = SeedFunction.eval_into, []

    def traced(self, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out
    monkeypatch.setattr(SeedFunction, "eval_into", traced)
    zs = random_disc_points(np.random.default_rng(3), 64, 0.5)
    tracemalloc.start()
    try:
        got = series.poincare_values(octagon, f, 4, zs, 8.0)
        rep = lemma22_check(octagon, f, 4, 4.0)
    finally:
        tracemalloc.stop()
    # each block here takes 250 KB to 2 MB
    assert len(peaks) > 2 and max(peaks) < 4096
    gz, den = enumerate_ball(octagon, 0.0j, 8.0).terms(zs)
    assert got.tobytes() == np.sum(f(gz) * den_power(den, 8), axis=0).tobytes()
    assert rep.holds


def _quadratures(group, radii):
    f = SeedFunction.poly([0.0, 1.0])
    return ([series.lemma22_check(group, f, 4, r) for r in radii]
            + [series.norm_pl(f, p, l) for p, l in [(1, 0.0), (2, 1.5)]]
            + [kernels.reproducing_check(4, SeedFunction.poly([0, 0, 1.0]),
                                         0.3), kernels.cm_constant(4)])


@pytest.mark.parametrize("polar_block, ball_rows, radii", [
    (1, 3, (6.0, 8.0)),
    # one block: at radius 8 that would hold about 1 GB of ball rows
    (10 ** 9, 10 ** 9, (6.0,))], ids=["tiny", "one-block"])
def test_quadrature_independent_of_block_size(octagon, monkeypatch,
                                              polar_block, ball_rows, radii):
    # the integrands are evaluated in blocks of grid rows and ball rows;
    # every element and every summation tree is the whole grid's, so no
    # float moves with the block size
    want = _quadratures(octagon, radii)
    monkeypatch.setattr(series, "_POLAR_BLOCK", polar_block)
    monkeypatch.setattr(series, "_BALL_ROWS", ball_rows)
    assert _quadratures(octagon, radii) == want


# Constant seeds, and constants with a part -0.0, which stay on Horner
_CONSTANTS = [1.0, -3.0, 2.5 - 1j, 0.0, 1e-300]
_SIGNED_ZEROS = [complex(-0.0, 0.0), complex(2.0, -0.0),
                 complex(-0.0, -0.0)]


@pytest.mark.parametrize("c, constant",
                         [(c, True) for c in _CONSTANTS]
                         + [(c, False) for c in _SIGNED_ZEROS],
                         ids=repr)
@pytest.mark.parametrize("which", ["octagon", "trivial"])
def test_constant_seed_sums_den_powers_with_horners_bits(
        request, monkeypatch, which, c, constant):
    # a constant seed writes c where Horner wrote 0 gamma z + c and forms
    # no gamma z; every report of the series keeps Horner's bits
    group = request.getfixturevalue(which)
    zs = random_disc_points(np.random.default_rng(17), 24, 0.6)

    def reports():
        f = SeedFunction.poly([c])
        vals = [series.poincare_values(group, f, m, zs, r)
                for m, r in ((2, 6.0), (4, 8.0), (3, 10.0))]
        sv = poincare_eval(group, f, 5, zs[0], 8.0)
        rep = lemma22_check(group, f, 4, 4.0)
        return f.constant, [
            *vals, np.array([sv.value, sv.tail_estimate]),
            np.array([rep.lhs, rep.rhs, rep.rhs_quadrature_error]),
            np.array([v for _, v in rep.partial_lhs]),
            np.array(norm_pl(f, 1, 1.0)), np.array(norm_pl(f, 2, 0.0))]
    is_constant, got = reports()
    monkeypatch.setattr(SeedFunction, "constant", False)
    _, want = reports()
    assert is_constant == constant
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_horner_turns_a_negative_zero_part_positive():
    # why a part -0.0 keeps a seed on Horner: 0 z + (-0.0) is +0.0 where
    # that part of 0 z is +0.0, so Horner's f(z) is not c bit for bit
    for c in _SIGNED_ZEROS:
        f = SeedFunction.poly([c])
        assert not f.constant
        got = f(np.array([0.5 + 0.5j]))
        assert got.tobytes() != np.array([c]).tobytes()


def test_den_alone_has_the_bits_of_the_pair(octagon):
    # terms forms gamma z only when out gives it a slot; den keeps its bits
    ball = enumerate_ball(octagon, 0.0j, 8.0)
    zs = random_disc_points(np.random.default_rng(19), 9, 0.7)
    for z in (zs, zs[0]):
        _, den = ball.terms(z)
        slot = np.empty_like(den)
        got = ball.terms(z, out=(None, slot))
        assert got[0] is None and got[1] is slot
        assert slot.tobytes() == den.tobytes()
    sv = weight_sum(octagon, 0.0j, zs[0], 8.0)
    assert sv.value == exact_sum((den.real ** 2 + den.imag ** 2) ** -2.0)
