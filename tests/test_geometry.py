"""Disc model: Mobius action, the BFS product, kernel, metric, distance."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from discforms.errors import BoundaryPoint, NonUnitary
from discforms.geometry import (
    bergman_metric, check_su11, check_disc_point, den_power, distance,
    mobius, mobius_jacobian, rho_error,
)
from discforms.group import (DEDUP_TOL, GroupElement, _product, enumerate_ball,
                             orbit_pairs)
from discforms.series import SeedFunction, poincare_values

from conftest import bergman_kernel_diag, mp_generator, random_disc_points


def random_elements(rng, n):
    out = []
    for _ in range(n):
        b = (rng.random() + 1j * rng.random()) * 1.5
        a = math.sqrt(1.0 + abs(b) ** 2) * np.exp(2j * np.pi * rng.random())
        out.append(GroupElement(a, b, ()))
    return out


def _compose(g1, g2):
    """g1 g2 (apply g2 first) by _product, the product every ball is
    built with."""
    a, b = _product(*(np.array([v]) for v in (g1.alpha, g1.beta,
                                               g2.alpha, g2.beta)))
    return GroupElement(a[0], b[0])


def test_identity_action():
    g = GroupElement(1.0 + 0.0j, 0.0j)
    z = 0.3 + 0.1j
    assert g.apply(z) == z
    assert g.jac(z) == 1.0


def test_forced_value_at_zero():
    g = GroupElement(math.sqrt(2), 1.0, ())
    assert g.apply(0.0) == pytest.approx(1.0 / math.sqrt(2))


def test_boundary_guard(octagon):
    # check_disc_point owns the guard: the entry points call it on the
    # caller's points, and the primitives take points as given
    for bad in (1.0 - 1e-13, 1.0 + 0j):
        with pytest.raises(BoundaryPoint):
            check_disc_point(bad)
        with pytest.raises(BoundaryPoint):
            enumerate_ball(octagon, bad, 1.0)
        with pytest.raises(BoundaryPoint):
            orbit_pairs(octagon, 0.0j, [0.1, bad], 1.0)
        with pytest.raises(BoundaryPoint):
            poincare_values(octagon, SeedFunction.poly([1.0]), 4, [bad], 4.0)
    # 2 artanh(1 - 1e-13) and 2/(1e-13 (2 - 1e-13))^2, nearly
    assert 30.6 < distance(0.0, 1.0 - 1e-13) < 30.7
    assert 4.9e25 < bergman_metric(1.0 - 1e-13) < 5.1e25


def test_non_unitary_rejected():
    with pytest.raises(NonUnitary):
        check_su11(1.5, 0.2)


def test_composition(rng):
    zs = random_disc_points(rng, 100)
    for g1, g2 in zip(random_elements(rng, 10), random_elements(rng, 10)):
        both = _compose(g1, g2)
        direct = both.apply(zs)
        chained = g1.apply(g2.apply(zs))
        assert np.max(np.abs(direct - chained)) < 1e-12


def test_jacobian_cocycle(rng):
    zs = random_disc_points(rng, 100)
    gs = random_elements(rng, 10)
    for g1, g2 in zip(gs, reversed(gs)):
        lhs = _compose(g1, g2).jac(zs)
        rhs = g1.jac(g2.apply(zs)) * g2.jac(zs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


_angles = st.floats(0.0, 2.0 * math.pi)
# SU(1,1) pairs (cosh t e^{i theta}, sinh t e^{i phi}) and points |z| <= 0.9
_su11 = st.builds(lambda t, th, ph: (math.cosh(t) * cmath.exp(1j * th),
                                     math.sinh(t) * cmath.exp(1j * ph)),
                  st.floats(0.0, 3.0), _angles, _angles)
_points = st.builds(cmath.rect, st.floats(0.0, 0.9), _angles)


@settings(deadline=None, max_examples=200)
@given(_su11, _su11, _points)
def test_mobius_jacobian_cocycle_property(g1, g2, z):
    (a1, b1), (a2, b2) = g1, g2
    a = a1 * a2 + b1 * b2.conjugate()      # matrix product g1 g2
    b = a1 * b2 + b1 * a2.conjugate()
    lhs = mobius_jacobian(a, b, z)
    rhs = (mobius_jacobian(a1, b1, mobius(a2, b2, z))
           * mobius_jacobian(a2, b2, z))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@settings(deadline=None, max_examples=200)
@given(_su11, _su11, _points)
def test_compose_is_applying_in_turn_property(g1, g2, z):
    # _product(g1, g2) applies g2 first.  Renormalizing by a real factor
    # does not change the action; at |z| <= 0.9 and cosh t <= cosh 3 the
    # two images differed by at most 123 ulps over 1e5 random draws
    e1, e2 = GroupElement(*g1), GroupElement(*g2)
    assert abs(_compose(e1, e2).apply(z) - e1.apply(e2.apply(z))) <= 1e-12


def test_jacobian_conformal_identity(rng):
    # |j_g(z)| (1 - |z|^2) = 1 - |g z|^2
    zs = random_disc_points(rng, 200)
    for g in random_elements(rng, 10):
        lhs = np.abs(g.jac(zs)) * (1.0 - np.abs(zs) ** 2)
        rhs = 1.0 - np.abs(g.apply(zs)) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kernel_transformation(rng):
    zs = random_disc_points(rng, 100)
    for g in random_elements(rng, 10):
        lhs = bergman_kernel_diag(g.apply(zs)) * np.abs(g.jac(zs)) ** 2
        rhs = bergman_kernel_diag(zs)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


def test_metric_invariance(rng):
    assert bergman_metric(0.0) == pytest.approx(2.0)
    zs = random_disc_points(rng, 100)
    for g in random_elements(rng, 10):
        lhs = bergman_metric(g.apply(zs)) * np.abs(g.jac(zs)) ** 2
        assert np.max(np.abs(lhs - bergman_metric(zs))) < 1e-10


def test_metric_is_laplacian_of_log_kernel(rng):
    # (1/4) Laplacian log K(z, z) = g(z)
    zs = random_disc_points(rng, 50, r_max=0.6)
    h = 1e-4

    def logk(z):
        return np.log(bergman_kernel_diag(z))

    lap = (logk(zs + h) + logk(zs - h) + logk(zs + 1j * h)
           + logk(zs - 1j * h) - 4.0 * logk(zs)) / h ** 2
    assert np.max(np.abs(0.25 * lap - bergman_metric(zs))) < 1e-6


def test_distance_basics(rng):
    zs = random_disc_points(rng, 50)
    assert np.max(distance(zs, zs)) == 0.0
    # closed form vs line-element quadrature along [0, 0.5]
    val, _ = quad(lambda r: 2.0 / (1.0 - r * r), 0.0, 0.5)
    assert distance(0.0, 0.5) == pytest.approx(val, abs=1e-10)


def test_distance_invariance_and_triangle(rng):
    zs = random_disc_points(rng, 60)
    ws = random_disc_points(rng, 60)
    us = random_disc_points(rng, 60)
    for g in random_elements(rng, 10):
        lhs = distance(g.apply(zs), g.apply(ws))
        assert np.max(np.abs(lhs - distance(zs, ws))) < 1e-10
    assert np.all(distance(zs, ws) <= distance(zs, us) + distance(us, ws)
                  + 1e-10)


def _ball_dens(octagon):
    """Every 23rd automorphy denominator of the R = 10 ball at 3 points."""
    ball = enumerate_ball(octagon, 0.0j, 10.0)
    zs = np.array([0.1 + 0.2j, -0.35 + 0.05j, 0.3 - 0.3j])
    return ball.terms(zs)[1][::23].ravel()


def test_den_power_against_high_precision(octagon):
    # largest relative error in units of 2^-53 against 40-digit mpmath, on
    # 711 denominators with |den| up to 74; measured (den_power, NumPy **):
    # n = 2: 2.21, 2.38; 4: 3.61, 3.89; 6: 4.62, 5.50; 8: 6.71, 6.78;
    # 9: 5.97, 6.59; 12: 7.76, 11.35
    den = _ball_dens(octagon)
    assert den.size == 711
    with mpmath.workdps(40):
        exact = [mpmath.mpc(complex(d)) for d in den]
        for n in (2, 4, 6, 8, 9, 12):
            want = [e ** -n for e in exact]

            def err(got):
                return max(float(abs(mpmath.mpc(complex(g)) - w) / abs(w))
                           for g, w in zip(got, want)) * 2.0 ** 53
            ours, numpy_ = err(den_power(den, n)), err(den ** -n)
            assert ours <= 1.5 * numpy_ and ours < 2 * n, (n, ours, numpy_)


def test_rho_error_against_60_digits(octagon):
    # every displacement d of the R = 10 ball at 0, recomputed from its word
    # (parent's product times last letter, as the BFS builds it) with the
    # exact generators: the worst error, 7.5e-12, is 3.75e-4 of
    # rho_error(10), and no error passes 4.3e-4 of its own rho_error(d);
    # the pairs drift by 4.2e-12 relative, 4.2e-3 of DEDUP_TOL
    ball = enumerate_ball(octagon, 0.0j, 10.0)
    with mpmath.workdps(60):
        pairs = [(mpmath.mpf(1), mpmath.mpf(0))]
        for parent, letter in zip(ball.parents[1:], ball.letters[1:]):
            pa, pb = pairs[parent]
            ga, gb = mp_generator(int(letter))
            pairs.append((pa * ga + pb * mpmath.conj(gb),
                          pa * gb + pb * mpmath.conj(ga)))
        errors = np.array([float(abs(
            2 * mpmath.atanh(abs(pairs[n][1]) / abs(pairs[n][0])) - d))
            for n, d in zip(ball.nodes.tolist(), ball.displacements.tolist())])
        drift = float(max(
            max(abs(pairs[n][0] - a), abs(pairs[n][1] - b)) / abs(a)
            for n, a, b in zip(ball.nodes.tolist(), ball.alphas.tolist(),
                               ball.betas.tolist())))
    assert len(ball) == 5433
    assert 3e-4 < np.max(errors) / rho_error(10.0) < 4.5e-4
    assert 3e-4 < np.max(errors / rho_error(ball.displacements)) < 6e-4
    assert 3e-3 < drift / DEDUP_TOL < 6e-3


def test_den_power_bits(octagon):
    den = _ball_dens(octagon)
    # j = den^-2 is the Jacobian's own formula, to the bit
    assert den_power(den, 2).tobytes() == (1.0 / (den * den)).tobytes()
    for n in (1, 5, 8, 13):
        want = den_power(den, n)
        # into out, on a slice, strided or scalar: the same bits
        out = np.empty_like(den)
        assert den_power(den, n, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert den_power(den[7:], n).tobytes() == want[7:].tobytes()
        assert den_power(den[::3], n).tobytes() == want[::3].tobytes()
        assert den_power(den[4], n) == want[4]
    assert den_power(den, 1).tobytes() == (1.0 / den).tobytes()
    with pytest.raises(ValueError, match="n >= 1"):
        den_power(den, 0)


def test_den_power_of_real_arrays(rng):
    # cm_constant takes |K_m| = c (|1 - z conj(w)|^2)^-m by den_power on
    # real squared moduli: a real result, within n ulps of NumPy's pow
    # (binary squaring doubles the relative error at each step)
    x = rng.uniform(0.25, 4.0, 1000)
    for n in range(1, 17):
        got, want = den_power(x, n), np.power(x, -float(n))
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want) / want) <= n * np.finfo(float).eps
