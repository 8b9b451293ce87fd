"""Orbit-geometric Seshadri lower bounds and the cut-off potential.

Two certificates: the injectivity-radius bound rho_x^2/2 and the density
bound 1/(2 D(r,x)), with D(r,x) the sup over centers of (orbit points of x
within distance r)/r^2.  The bounds coincide at r = rho_x since no two
orbit points fit strictly inside a ball of radius rho_x.  The potential
psi^x built from the fixed C^{1,1} cut-off a witnesses the density bound;
its quasi-plurisubharmonicity is checked by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import dirichlet_domain
from .geometry import bergman_metric, distance
from .group import enumerate_ball, orbit_counts, orbit_pairs


def injectivity_radius(group, x):
    """rho_x: half the minimal non-identity orbit displacement of x."""
    if group.is_trivial:
        return math.inf
    x = complex(x)
    d0 = group.min_generator_displacement(x)
    ball = enumerate_ball(group, x, 2.0 * d0 + 0.5)
    disp = ball.displacements[1:]        # drop the identity at index 0
    return 0.5 * float(np.min(disp))


@dataclass
class DensityReport:
    value: float           # D(r, x) = best count / r^2
    best_count: int
    best_center: complex
    r: float
    n_grid: int


def density(group, x, r, spacing=0.02, refine=True, full_output=False):
    """D(r,x): sup over centers z of orbit_count(x, z, r) / r^2.

    The count is Gamma-invariant in z, so the sup is scanned over a grid on
    the fundamental domain, with one local refinement pass around the best
    candidate at spacing r/20 (hyperbolic, converted at the candidate).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    x = complex(x)
    if group.is_trivial:
        out = DensityReport(1.0 / r ** 2, 1, x, r, 1)
        return out if full_output else out.value
    domain = dirichlet_domain(group, 0.0j, spacing=spacing)
    zs = domain.nodes
    counts = orbit_counts(group, x, zs, r)
    i = int(np.argmax(counts))
    best, center = int(counts[i]), complex(zs[i])
    if refine:
        # counts are piecewise constant; refinement targets the jump loci
        h_loc = (r / 20.0) * (1.0 - abs(center) ** 2) / 2.0
        span = np.arange(-10, 11) * h_loc
        gx, gy = np.meshgrid(span, span, indexing="ij")
        local = center + gx.ravel() + 1j * gy.ravel()
        local = local[np.abs(local) < 1.0 - 1e-9]
        lc = orbit_counts(group, x, local, r)
        j = int(np.argmax(lc))
        if lc[j] > best:
            best, center = int(lc[j]), complex(local[j])
    out = DensityReport(best / r ** 2, best, center, r, len(zs))
    return out if full_output else out.value


def cutoff_a(t):
    """The fixed C^{1,1} cut-off: a(t) = 1 + t - e^t for t < 0, else 0.

    Returns (value, first derivative); both vanish at 0 and a'' = -e^t on
    the negative axis, so a''/e^t >= -1.
    """
    t = np.asarray(t, dtype=float)
    neg = t < 0
    val = np.where(neg, 1.0 + t - np.exp(np.minimum(t, 0.0)), 0.0)
    der = np.where(neg, -np.expm1(np.minimum(t, 0.0)), 0.0)
    if val.shape == ():
        return float(val), float(der)
    return val, der


# psi is -inf on the orbit of x; points this close count as on it
SINGULAR_TOL = 1e-9


def psi_values(group, x, r, zs, ball=None):
    """psi^x on an array of points; -inf marker on (near) the orbit of x.

    psi^x(z) = sum over orbit points p of a(log(rho(z,p)^2 / r^2)); only
    p with rho(z,p) < r contribute, so an orbit ball of reach
    max rho(x,z) + r covers the support exactly.
    """
    x = complex(x)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if ball is None:
        reach = float(np.max(distance(x, zs))) + r + 1e-6
        ball = enumerate_ball(group, x, reach)
    # querying at SINGULAR_TOL at least keeps the -inf marker for tiny r
    iz, ib = orbit_pairs(ball, zs, max(r, SINGULAR_TOL))
    d = distance(ball.orbit_points()[ib], zs[iz])
    with np.errstate(divide="ignore"):
        t = 2.0 * np.log(np.maximum(d, 1e-300) / r)
    val, _ = cutoff_a(t)
    # bincount returns integers when no pair is found
    out = np.bincount(iz, weights=val, minlength=len(zs)).astype(float)
    out[iz[d < SINGULAR_TOL]] = -math.inf
    return out


def psi_x(group, x, r, z):
    """Scalar psi^x(z); returns -inf within 1e-9 of the orbit of x."""
    return float(psi_values(group, x, r, np.array([complex(z)]))[0])


@dataclass
class QuasiPshReport:
    r: float
    density_value: float
    fd_spacing: float
    tau: float             # measured finite-difference error scale
    min_margin: float      # min over grid of lap/4 + 2 D g (before tau)
    n_checked: int
    n_violations: int      # margin < -tau
    violating_points: list = field(default_factory=list)


def quasi_psh_check(group, x, r, spacing=0.0125, lower=None):
    """Finite-difference check of d2 psi / dz dzbar >= -2 D(r,x) g.

    Uses the 9-point Laplacian at spacings h = 1e-3 and h/2; tau is twice
    the largest discrepancy between the two, the empirical discretisation
    scale.  Grid points within 10h of an orbit point of x are excluded
    (psi is log-singular there and the bound holds distributionally).
    `lower` overrides the coefficient -2 D (the single-center configuration
    obeys the sharper -2/r^2).
    """
    x = complex(x)
    h = 1e-3
    dvalue = density(group, x, r, spacing=max(spacing, 0.02))
    coeff = 2.0 * dvalue if lower is None else float(lower)
    if group.is_trivial:
        span = np.arange(-0.7, 0.7001, spacing)
        gx, gy = np.meshgrid(span, span, indexing="ij")
        zs = (gx + 1j * gy).ravel()
        zs = zs[np.abs(zs) < 0.9]
    else:
        zs = dirichlet_domain(group, 0.0j, spacing=spacing).nodes
    reach = float(np.max(distance(x, zs))) + r + 1e-6
    ball = enumerate_ball(group, x, reach)
    pts = ball.orbit_points()
    near = np.min(np.abs(zs[:, None] - pts[None, :]), axis=1)
    zs = zs[near > 10.0 * h]

    def lap(hh):
        # 9-point Laplacian: (4*edges + corners - 20*center) / (6 h^2)
        off = hh * np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j,
                             -1 - 1j, 0])
        wts = np.array([4.0, 4, 4, 4, 1, 1, 1, 1, -20.0]) / (6.0 * hh * hh)
        acc = np.zeros(len(zs))
        for o, wgt in zip(off, wts):
            acc += wgt * psi_values(group, x, r, zs + o, ball=ball)
        return acc

    l1 = lap(h)
    l2 = lap(h / 2.0)
    tau = 2.0 * float(np.max(np.abs(l1 - l2))) + 1e-9
    margin = 0.25 * l2 + coeff * bergman_metric(zs)
    bad = margin < -tau
    return QuasiPshReport(
        r=r, density_value=dvalue, fd_spacing=h, tau=tau,
        min_margin=float(np.min(margin)), n_checked=len(zs),
        n_violations=int(np.sum(bad)),
        violating_points=[complex(z) for z in zs[bad][:20]])


@dataclass
class SeshadriReport:
    rho_x: float
    best_r: float
    D_best: float
    bound_inj: float       # rho_x^2 / 2
    bound_density: float   # max over candidates of 1/(2 D(r,x))
    epsilon_lower: float
    candidates: list = field(default_factory=list)  # (r, D, 1/(2D))


def seshadri_lower_bound(group, x):
    """Both lower bounds for epsilon(K) at x; density bound scanned over r."""
    rho = injectivity_radius(group, x)
    if not math.isfinite(rho):
        raise ValueError("Seshadri bounds need a nontrivial group")
    rows = []
    for r in [rho * s for s in (1.0, 1.25, 1.5, 2.0, 3.0)]:
        dv = density(group, x, r)
        rows.append((float(r), dv, 1.0 / (2.0 * dv)))
    best = max(rows, key=lambda t: t[2])
    bound_inj = rho * rho / 2.0
    bound_density = best[2]
    return SeshadriReport(
        rho_x=rho, best_r=best[0], D_best=best[1], bound_inj=bound_inj,
        bound_density=bound_density,
        epsilon_lower=max(bound_inj, bound_density), candidates=rows)


def ampleness_thresholds(epsilon, n, C=None):
    """Smallest weights m >= 2 clearing each very-ampleness inequality.

    demailly: (m-1) eps > 2n;  main: (m-2) eps > 2n;
    df (only when C given): (m-2+1/C) eps > 2n.
    """
    if epsilon <= 0 or n < 1:
        raise ValueError("need epsilon > 0 and n >= 1")

    def smallest(shift):
        m = 2
        while (m + shift) * epsilon <= 2.0 * n:
            m += 1
            if m > 1_000_000:
                raise OverflowError("threshold exceeds cap")
        return m

    out = {"demailly": smallest(-1), "main": smallest(-2)}
    if C is not None:
        out["df"] = smallest(-2 + 1.0 / C)
    return out
