"""Weighted Bergman kernels on the disc and the relative Poincare round trip.

The weight-m kernel reproduces holomorphic f with ||f||_{2,m-1} finite,
where the norm integrates |f|^2 K^{1-m} d(lambda).  Monomial norms are Beta
integrals:

    ||z^k||^2 = pi^(m-1) * 2 pi * Int r^(2k+1) (1-r^2)^(2m-2) dr
              = pi^m * B(k+1, 2m-1),

so K_m(z,w) = sum z^k conj(w)^k / ||z^k||^2
            = (2m-1)/pi^m * (1 - z conj(w))^(-2m)

by the binomial series.  The closed form is frozen here; the truncated
orthonormal series stays available as its permanent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import check_disc_point, disc_points
from .domain import dirichlet_domain
from .group import _PAIR_CHUNK, enumerate_ball
from .series import poincare_values, _polar_grid


def weighted_kernel(m, z, w):
    """Closed-form weight-m Bergman kernel K_m(z, w)."""
    if m < 2:
        raise ValueError("weight m must be >= 2")
    z = check_disc_point(np.asarray(z, dtype=complex))
    w = check_disc_point(np.asarray(w, dtype=complex))
    return (2 * m - 1) / np.pi ** m * (1.0 - z * np.conj(w)) ** (-2 * m)


def weighted_kernel_series(m, z, w, degree=200):
    """Truncated orthonormal expansion of K_m; oracle for the closed form."""
    if m < 2:
        raise ValueError("weight m must be >= 2")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zw = z * np.conj(w)
    # coefficient (2m-1) * C(2m-1+k, k) / pi^m by the recurrence
    # c_{k} = c_{k-1} * (2m-1+k)/k
    total = np.zeros(np.broadcast(z, w).shape, dtype=complex)
    c = (2 * m - 1) / np.pi ** m
    power = np.ones_like(total)
    for k in range(degree + 1):
        total = total + c * power
        power = power * zw
        c = c * (2 * m + k) / (k + 1)
    return total[()] if total.shape == () else total


@dataclass
class TransformationReport:
    max_residual: float
    n_samples: int
    per_element: dict = field(default_factory=dict)  # word -> max residual


def kernel_transformation_check(group, m, n_samples=100, seed=0):
    """Residual of K_m(gz, gw) j(z)^m conj(j(w))^m = K_m(z, w) at random points."""
    rng = np.random.default_rng(seed)
    z = disc_points(rng, n_samples, 0.8)
    w = disc_points(rng, n_samples, 0.8)
    base = weighted_kernel(m, z, w)
    per = {}
    elems = list(group.generators) + [g.inverse() for g in group.generators]
    for g in elems:
        lhs = (weighted_kernel(m, g.apply(z), g.apply(w))
               * g.jac(z) ** m * np.conj(g.jac(w)) ** m)
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


def reproducing_check(m, h, w):
    """Quadrature of Int K_m(z,w) conj(h(z)) K(z,z)^(1-m) vs conj(h(w))."""
    w = check_disc_point(complex(w))
    expected = np.conj(h(w))

    def integral(n_r, n_theta):
        z, wt = _polar_grid(n_r, n_theta)
        dens = (weighted_kernel(m, z, w) * np.conj(h(z))
                * (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** (m - 1))
        return complex(np.sum(dens * wt))

    full = integral(800, 512)
    half = integral(400, 256)
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


def cm_constant(m, probes=(0.0, 0.2, 0.4j, -0.3 + 0.3j, 0.5)):
    """A(w) = K(w,w)^(-m/2) Int |K_m(z,w)| K(z,z)^(1-m/2) at probe points.

    Mobius invariance makes A constant; at w=0 the integrand is radial and
    A(0) = (2m-1)/(m-1) in closed form.
    """
    z, wt = _polar_grid(1600, 512)
    kz = (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** (m / 2.0 - 1.0)
    vals = []
    for w in probes:
        w = check_disc_point(complex(w))
        pref = (np.pi * (1.0 - abs(w) ** 2) ** 2) ** (m / 2.0)
        integ = float(np.sum(np.abs(weighted_kernel(m, z, w)) * kz * wt))
        vals.append(pref * integ)
    analytic = (2 * m - 1) / (m - 1)
    return CmReport(m, vals, [complex(p) for p in probes], analytic,
                    (max(vals) - min(vals)) / analytic)


def relative_poincare(domain, h_values, m, z):
    """f(z) = Int_F h(w) K_m(z,w) K(w,w)^(1-m) d(lambda)(w).

    h is given by its values on the domain quadrature nodes; z may be an
    array.  The result is holomorphic in z and P_m(f) recovers the
    automorphic h.
    """
    z = np.asarray(z, dtype=complex)
    nodes = domain.nodes
    dens = (h_values * domain.weights
            * (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** (m - 1))
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    chunk = max(1, _PAIR_CHUNK // max(len(nodes), 1))
    for i in range(0, len(flat), chunk):
        zz = flat[i:i + chunk, None]
        out[i:i + chunk] = np.sum(
            weighted_kernel(m, zz, nodes[None, :]) * dens[None, :], axis=1)
    return out.reshape(z.shape)[()] if z.shape == () else out.reshape(z.shape)


@dataclass
class RoundTripReport:
    max_rel_error: float
    rel_errors: list
    sample_points: list
    spacing: float
    radius: float


def roundtrip_check(group, f0, m, sample_points, radius=8.0, spacing=0.02):
    """Build h = P_m(f0) on F, apply relative_poincare, re-sum, compare.

    The exact chain h -> f -> P_m(f) is the identity; the report measures
    the truncation plus quadrature error at interior sample points.
    """
    samples = np.asarray(sample_points, dtype=complex)
    domain = dirichlet_domain(group, 0.0j, spacing=spacing)
    h_nodes = poincare_values(group, f0, m, domain.nodes, radius)
    h_samples = poincare_values(group, f0, m, samples, radius)

    ball = enumerate_ball(group, 0.0j, radius)
    rel = []
    for zs, hz in zip(samples, h_samples):
        orbit, den = ball.terms(zs)
        f_orbit = relative_poincare(domain, h_nodes, m, orbit)
        resummed = complex(np.sum(f_orbit * den ** (-2 * m)))
        rel.append(abs(resummed - hz) / max(abs(hz), 1e-300))
    return RoundTripReport(max(rel), rel, list(samples), spacing, radius)
