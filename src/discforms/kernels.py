"""Weighted Bergman kernels on the disc and the relative Poincare round trip.

The weight-m kernel reproduces holomorphic f with ||f||_{2,m-1} finite,
where the norm integrates |f|^2 K^{1-m} d(lambda).  Monomial norms are Beta
integrals:

    ||z^k||^2 = pi^(m-1) * 2 pi * Int r^(2k+1) (1-r^2)^(2m-2) dr
              = pi^m * B(k+1, 2m-1),

so K_m(z,w) = sum a_k (z conj(w))^k,  a_k = (2m-1)/pi^m C(2m-1+k, k),
            = (2m-1)/pi^m * (1 - z conj(w))^(-2m)

by the binomial series.  The closed form is frozen here; the truncated
orthonormal series stays available as its permanent oracle.

Against a density on nodes w, sum_w dens_w K_m(z, w) = sum_k a_k M_k z^k
with moments M_k = sum_w dens_w conj(w)^k.  For t = max|w|, which bounds
|z| max|w| on the whole disc, and S = sum|dens_w| the term ratio
a_{k+1} t / a_k = t (2m+k)/(k+1) falls with k, so the terms after order N
sum to at most S a_{N+1} t^(N+1) / (1 - t (2m+N+1)/(N+2)) at every |z| < 1.
N is the least order making that at most one unit roundoff 2^-53 of
S (2m-1)/pi^m (1-t)^(-2m), the termwise-absolute sum that bounds the
direct sum's own rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import check_disc_point, den_power, disc_points, mobius_den
from .domain import dirichlet_domain
from .group import enumerate_ball
from .series import SeedFunction, _polar_sum, poincare_values

# Terms kept by weighted_kernel_series; the points w of cm_constant's A(w);
# the seed h = z^2 and point w that reproducing_check reproduces.
SERIES_DEGREE = 200
CM_PROBES = (0.0, 0.2, 0.4j, -0.3 + 0.3j, 0.5)
REPRODUCING_PROBE = (SeedFunction.poly([0, 0, 1.0]), 0.3 + 0.0j)


def _kernel_constant(m):
    """(2m-1)/pi^m, so that K_m(z, w) = (2m-1)/pi^m (1 - z conj(w))^-2m."""
    if m < 2:
        raise ValueError("weight m must be >= 2")
    return (2 * m - 1) / np.pi ** m


def weighted_kernel(m, z, w):
    """Closed-form weight-m Bergman kernel K_m(z, w)."""
    c = _kernel_constant(m)
    z = check_disc_point(np.asarray(z, dtype=complex))
    w = check_disc_point(np.asarray(w, dtype=complex))
    return c * den_power(1.0 - z * np.conj(w), 2 * m)


def _kernel_coefficients(m):
    """a_0, a_1, ...: a_0 = (2m-1)/pi^m and a_k = a_{k-1} (2m-1+k)/k."""
    c, k = _kernel_constant(m), 0
    while True:
        yield c
        c, k = c * (2 * m + k) / (k + 1), k + 1


def series_rounding_bound(m, z, w, cf):
    """Bound on |cf - weighted_kernel_series(m, z, w)| from rounding, for
    cf = weighted_kernel(m, z, w), unit roundoff u and q = |z conj(w)|.
    Series term k is within (5k + 4) u (k multiply-divide steps for its
    coefficient, k complex products for the power) and the recursive sum
    adds SERIES_DEGREE u S, S = sum|terms| = (2m-1)/pi^m (1-q)^(-2m): both
    within 6 (SERIES_DEGREE + 1) u S.  The closed form rounds 1 - z conj(w)
    to relative 2u q/(1-q), raised to the power 2m, plus about 20 u.  The
    cut at degree 200 is below 1e-20 relative for |z|, |w| <= 0.8."""
    u = np.finfo(float).eps / 2
    q = np.abs(z * np.conj(w))
    total = _kernel_constant(m) * (1.0 - q) ** (-2 * m)
    return u * (6 * (SERIES_DEGREE + 1) * total
                + (4 * m / (1.0 - q) + 20) * np.abs(cf))


def weighted_kernel_series(m, z, w):
    """Truncated orthonormal expansion of K_m; oracle for the closed form."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    zw = z * np.conj(w)
    total = np.zeros(zw.shape, dtype=complex)
    power = np.ones_like(total)
    for _, c in zip(range(SERIES_DEGREE + 1), _kernel_coefficients(m)):
        total = total + c * power
        power = power * zw
    return total[()] if total.shape == () else total


@dataclass
class TransformationReport:
    max_residual: float
    n_samples: int
    per_element: dict = field(default_factory=dict)  # word -> max residual


def kernel_transformation_check(group, m, n_samples, seed=0):
    """Residual of K_m(gz, gw) j(z)^m conj(j(w))^m = K_m(z, w) at random points."""
    rng = np.random.default_rng(seed)
    z = disc_points(rng, n_samples, 0.8)
    w = disc_points(rng, n_samples, 0.8)
    base = weighted_kernel(m, z, w)
    per = {}
    elems = list(group.generators) + [g.inverse() for g in group.generators]
    for g in elems:
        jz, jw = (den_power(mobius_den(g.alpha, g.beta, p), 2 * m)
                  for p in (z, w))
        lhs = weighted_kernel(m, g.apply(z), g.apply(w)) * jz * np.conj(jw)
        per["".join(map(str, g.word)) or "id"] = float(
            np.max(np.abs(lhs - base) / np.abs(base)))
    worst = max(per.values()) if per else 0.0
    return TransformationReport(worst, n_samples, per)


@dataclass
class ReproducingReport:
    value: complex
    expected: complex
    rel_error: float
    rel_error_half_grid: float


def reproducing_check(m):
    """Quadrature of Int K_m(z,w) conj(h(z)) K(z,z)^(1-m) vs conj(h(w)), for
    (h, w) = REPRODUCING_PROBE."""
    h, w = REPRODUCING_PROBE
    expected = np.conj(h(w))

    def dens(z, wt, r):
        # K_m(z, w) conj(h(z)) K(z,z)^(1-m), c K(z,z)^(1-m) once per radius
        return (den_power(1.0 - z * np.conj(w), 2 * m) * np.conj(h(z))
                * (_kernel_constant(m) * (np.pi * (1.0 - r ** 2) ** 2)
                   ** (m - 1) * wt))

    full = complex(_polar_sum(800, 512, dens, complex))
    half = complex(_polar_sum(400, 256, dens, complex))
    scale = max(abs(expected), 1e-300)
    return ReproducingReport(full, expected, abs(full - expected) / scale,
                             abs(half - expected) / scale)


@dataclass
class CmReport:
    m: int
    values: list          # A(w) at each probe
    probes: list
    analytic: float       # (2m-1)/(m-1), the w=0 closed form
    spread: float         # (max-min)/analytic


def cm_constant(m):
    """A(w) = K(w,w)^(-m/2) Int |K_m(z,w)| K(z,z)^(1-m/2) at probe points.

    Mobius invariance makes A constant; at w=0 the integrand is radial and
    A(0) = (2m-1)/(m-1) in closed form.
    """
    c = _kernel_constant(m)

    def integrand(z, wt, r, w):
        # K(z,z)^(m/2-1) once per radius; |K_m| = c (|1 - z conj(w)|^2)^-m
        kz = c * (np.pi * (1.0 - r ** 2) ** 2) ** (m / 2.0 - 1.0) * wt
        d = 1.0 - z * np.conj(w)
        return den_power(d.real ** 2 + d.imag ** 2, m) * kz

    vals = []
    for w in np.asarray(CM_PROBES, dtype=complex):
        pref = (np.pi * (1.0 - abs(w) ** 2) ** 2) ** (m / 2.0)
        integ = float(_polar_sum(
            1600, 512, lambda z, wt, r: integrand(z, wt, r, w), float))
        vals.append(pref * integ)
    analytic = (2 * m - 1) / (m - 1)
    return CmReport(m, vals, [complex(p) for p in CM_PROBES], analytic,
                    (max(vals) - min(vals)) / analytic)


def relative_poincare(domain, h_values, m):
    """(f, tail_bound): f(z) = Int_F h(w) K_m(z,w) K(w,w)^(1-m) d(lambda)(w).

    h is given by its values on the domain quadrature nodes.  f is
    holomorphic on the disc and P_m(f) recovers the automorphic h.  f is
    the module docstring's moment series as a polynomial seed, cut at its
    least order N certified on the whole disc; tail_bound bounds the cut
    at every |z| < 1.
    """
    nodes = check_disc_point(domain.nodes)
    dens = (h_values * domain.weights
            * (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** (m - 1))
    t = np.max(np.abs(nodes), initial=0.0)
    goal = 2.0 ** -53 * (2 * m - 1) / np.pi ** m * (1.0 - t) ** (-2 * m)
    b, power, wbar = [], dens, np.conj(nodes)     # b_k = a_k M_k
    for k, c in enumerate(_kernel_coefficients(m)):
        ratio = t * (2 * m + k) / (k + 1)   # >= a_{j+1} t / a_j for j >= k
        tail = c * t ** k / (1.0 - ratio) if ratio < 1.0 else np.inf
        if b and tail <= goal:
            break
        b.append(c * np.sum(power))
        power = power * wbar
        if k % 16 == 15:
            # an underflowing power sticks at the least subnormals (x |w|
            # rounds back to x), each product of which is slow; its node
            # dropped, a moment moves by at most len(nodes) 2^-1022
            live = np.abs(power) >= np.finfo(float).tiny
            power, wbar = power[live], wbar[live]
    return SeedFunction.poly(b), float(tail * np.sum(np.abs(dens)))


@dataclass
class RoundTripReport:
    max_rel_error: float
    rel_errors: list
    sample_points: list
    spacing: float
    radius: float


def roundtrip_check(group, f0, m, sample_points, spacing, radius=8.0):
    """Build h = P_m(f0) on F, apply relative_poincare, re-sum P_m(f) with
    poincare_values, compare.

    The exact chain h -> f -> P_m(f) is the identity; the report measures
    the truncation plus quadrature error at interior sample points.
    """
    samples = np.asarray(sample_points, dtype=complex)
    # the series ball first: the domain's smaller one is then a slice of it
    enumerate_ball(group, 0.0j, radius)
    domain = dirichlet_domain(group, spacing=spacing)
    h_nodes = poincare_values(group, f0, m, domain.nodes, radius)
    h_samples = poincare_values(group, f0, m, samples, radius)
    f, _ = relative_poincare(domain, h_nodes, m)
    resummed = poincare_values(group, f, m, samples, radius)
    rel = np.abs(resummed - h_samples) / np.maximum(np.abs(h_samples),
                                                    1e-300)
    return RoundTripReport(float(np.max(rel)), rel.tolist(), list(samples),
                           spacing, radius)
