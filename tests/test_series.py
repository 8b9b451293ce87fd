"""Poincare series values, tails, norms and the integral inequalities."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from discforms.errors import UnboundedSeed, TargetNotReached
from discforms.series import (
    SeedFunction, lemma22_check, norm_pl, poincare_eval, polynomial_approx,
    schwarz_bound_check, weight_sum,
)
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


def test_norm_oracles():
    assert norm_pl(ONE, 1, 0.0) == pytest.approx(math.pi, rel=1e-3)
    # Int (pi (1-|z|^2)^2) d(lambda) = pi^2/3
    assert norm_pl(ONE, 1, 1.0) == pytest.approx(math.pi ** 2 / 3, rel=1e-4)
    # monomial Beta-integral oracle: ||z^k||_{2,l}^2 = pi^(l+1) B(k+1, 2l+1)
    for k, l in ((1, 0.0), (2, 1.0), (3, 2.0)):
        f = SeedFunction.poly([0.0] * k + [1.0])
        oracle = math.pi ** (l + 1) * beta_fn(k + 1, 2 * l + 1)
        assert norm_pl(f, 2, l) == pytest.approx(oracle, rel=1e-6)


def test_norm_homogeneity_and_validation():
    f = SeedFunction.poly([0.0, 3.0])
    assert norm_pl(f, 1, 0.5) == pytest.approx(3.0 * norm_pl(Z, 1, 0.5),
                                               rel=1e-12)
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


def test_poincare_trivial(trivial):
    z = 0.3 - 0.2j
    sv = poincare_eval(trivial, Z, 4, z, 5.0)
    assert sv.value == z
    assert sv.terms_used == 1


def test_poincare_reordering(octagon, rng):
    # fsum in displacement order vs brute-force sums in random orders
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
    assert all(a <= b + 1e-15 for a, b in zip(partial, partial[1:]))
    # report both sides, never equality
    assert rep.lhs > 0 and rep.rhs > 0


def test_polynomial_approx():
    res = polynomial_approx(Z, 1.0, 1e-6)
    assert res.degree == 1 and res.achieved_norm == 0.0
    f = SeedFunction.rational([1.0], [2.0, -1.0])     # 1/(2 - z)
    res = polynomial_approx(f, 1.0, 1e-3)
    assert res.achieved_norm < 1e-3
    diff = SeedFunction.from_callable(lambda z: f(z) - res.poly(z))
    assert norm_pl(diff, 1, 1.0, grid=(400, 256)) < 1e-3
    with pytest.raises(TargetNotReached):
        polynomial_approx(f, 1.0, 1e-12, max_degree=4)


def test_polynomial_approx_downstream(octagon, rng):
    # |P_m(f) - P_m(h)| <= sup|f-h| * (truncated weight-m majorant)
    f = SeedFunction.rational([1.0], [2.0, -1.0])
    res = polynomial_approx(f, 1.0, 1e-4)
    diff = SeedFunction.from_callable(lambda z: f(z) - res.poly(z))
    sup = diff.sup_disc()
    for z in random_disc_points(rng, 10, r_max=0.5):
        pf = poincare_eval(octagon, f, 4, z, 8.0)
        ph = poincare_eval(octagon, res.poly, 4, z, 8.0)
        ws = weight_sum(octagon, 0.0j, z, 8.0)
        assert abs(pf.value - ph.value) <= sup * (ws.value + ws.tail_estimate)


def test_schwarz_trivial_equality(trivial):
    rep = schwarz_bound_check(trivial, Z, 3, 0.2 + 0.1j, 5.0)
    assert rep.holds_at_every_prefix
    assert rep.max_prefix_ratio == pytest.approx(1.0, abs=1e-12)


def test_schwarz_preset(octagon, rng):
    for z in random_disc_points(rng, 3, r_max=0.5):
        rep = schwarz_bound_check(octagon, ONE, 3, z, 8.0)
        assert rep.holds_at_every_prefix
        assert rep.lhs_sq <= rep.rhs * (1.0 + 1e-12)
