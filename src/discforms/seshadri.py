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

from .domain import check_spacing, dirichlet_domain
from .geometry import (
    bergman_metric, check_disc_point, disc_ratio, distance, ratio_distance,
)
from .group import enumerate_ball, orbit_counts, orbit_pairs


def injectivity_radius(group, x):
    """rho_x: half the minimal non-identity orbit displacement of x.

    rho_x is Gamma-invariant, so x is first reduced toward 0 to keep the
    ball small.  The smallest generator displacement d0 at x bounds the
    minimum, so the ball at x of radius d0 (plus 0.5 of slack) holds it,
    second in ball order after the identity.  A group with no generators
    has only the identity: rho_x is infinite.
    """
    x = complex(group.reduce_points([x])[0])
    ball = enumerate_ball(group, x, group.min_generator_displacement(x) + 0.5)
    return 0.5 * float(ball.displacements[1]) if len(ball) > 1 else math.inf


@dataclass
class DensityReport:
    value: float           # D(r, x) = best count / r^2
    best_count: int
    best_center: complex
    r: float
    n_grid: int


def density(group, x, r, spacing=0.02):
    """D(r,x): sup over centers z of #{orbit points of x within r of z} / r^2.

    The count is Gamma-invariant in z, so the sup is scanned over a grid on
    the fundamental domain, with one local refinement pass around the best
    candidate at spacing r/20 (hyperbolic, converted at the candidate).
    The reduced x is a candidate too: it counts x, so D >= 1/r^2 at any r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    x = complex(x)
    if group.is_trivial:
        return DensityReport(1.0 / r ** 2, 1, x, r, 1)
    nodes = dirichlet_domain(group, spacing=spacing).nodes
    # argmax takes the first maximum: x wins only with a strictly higher count
    zs = np.append(nodes, group.reduce_points([x]))
    counts = orbit_counts(group, x, zs, r)
    i = int(np.argmax(counts))
    best, center = int(counts[i]), complex(zs[i])
    # counts are piecewise constant; refinement targets the jump loci
    h_loc = (r / 20.0) * (1.0 - abs(center) ** 2) / 2.0
    span = np.arange(-10, 11) * h_loc
    gx, gy = np.meshgrid(span, span, indexing="ij")
    local = center + gx.ravel() + 1j * gy.ravel()
    local = local[np.abs(local) < 1.0 - 1e-9]
    lc = orbit_counts(group, x, group.reduce_points(local), r)
    j = int(np.argmax(lc))
    if lc[j] > best:
        best, center = int(lc[j]), complex(local[j])
    return DensityReport(best / r ** 2, best, center, r, len(nodes))


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


def psi_values(group, x, r, zs):
    """psi^x on an array of points; -inf marker on (near) the orbit of x.

    psi^x(z) = sum over orbit points p of a(log(rho(z,p)^2 / r^2)); only
    p with rho(z,p) < r contribute, and orbit_pairs finds those.
    """
    x = complex(x)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    # querying at SINGULAR_TOL at least keeps the -inf marker for tiny r
    iz, p = orbit_pairs(group, x, zs, max(r, SINGULAR_TOL))
    return _cutoff_sum(iz, distance(p, zs[iz]), r, len(zs))


def _cutoff_sum(iz, d, r, n):
    """psi^x at n points zs from their pairs' iz and d = rho(p, zs[iz]).

    bincount adds each point's terms in the order of its pairs, ball order.
    """
    with np.errstate(divide="ignore"):
        t = 2.0 * np.log(np.maximum(d, 1e-300) / r)
    val, _ = cutoff_a(t)
    # bincount returns integers when no pair is found
    out = np.bincount(iz, weights=val, minlength=n).astype(float)
    out[iz[d < SINGULAR_TOL]] = -math.inf
    return out


# nodes per candidate query of the stencil; at --r-factors 4 all nodes at
# once held 172 MB of candidates at peak, blocks of 1,024 nodes 52 MB
_STENCIL_BLOCK = 1024


def _stencil_psi(group, x, r, zs, offsets, skip):
    """Blocks (blk, psi): psi[k] is psi^x at zs[blk] + offsets[k].

    The only orbit queries over zs: one per block, at q + reach with q
    psi_values' radius and reach >= rho(z, z + o) for all nodes and
    offsets.  Each point keeps the candidates that pass orbit_pairs' test
    at q: psi_values' pairs in its order, so every value is the same to
    the bit.  blk omits the nodes within Euclidean distance skip of a
    candidate that passes the test at r, so none of their -inf is yielded.
    """
    q = max(r, SINGULAR_TOL)
    dz = distance(0.0j, zs)
    offsets, rows = np.unique(offsets, return_inverse=True)
    zmax, omax = float(np.max(np.abs(zs))), float(np.max(np.abs(offsets)))
    # |z + o| <= zmax + omax < 1 and |1 - conj(z)(z + o)| >= 1 - zmax^2 -
    # zmax omax > 0, so a stencil point that may leave the disc raises
    check_disc_point(zmax + omax)
    reach = float(ratio_distance(omax / (1.0 - zmax * (zmax + omax))))
    # Rounding slack: psi_values' test of rho(p, z + o) < q, this reach and
    # the candidate test of rho(p, z) each err by a few ulps times
    # e^(rho(0, a) + rho(a, b)), a = z + o or z (see orbit_pairs); each
    # exponent stays below max rho(0, z) + q + reach: 2^-40 e^that covers.
    reach += 2.0 ** -40 * math.exp(float(np.max(dz)) + q + reach)
    t_max, t_r = np.tanh(q / 2.0), np.tanh(r / 2.0)
    # farthest nodes first: the first query sizes the ball for the rest
    order = np.argsort(-dz, kind="stable")
    for s in range(0, len(zs), _STENCIL_BLOCK):
        blk = order[s:s + _STENCIL_BLOCK]
        iz, p = orbit_pairs(group, x, zs[blk], q + reach)
        zc = zs[blk][iz]
        keep = np.ones(len(blk), dtype=bool)
        t0 = disc_ratio(p, zc)      # the zero offset's ratios
        keep[iz[(t0 < t_r) & (np.abs(zc - p) <= skip)]] = False
        psi = np.empty((len(offsets), len(blk)))
        for k, o in enumerate(offsets):
            t = disc_ratio(p, zc + o) if o else t0
            near = t < t_max
            psi[k] = _cutoff_sum(iz[near], ratio_distance(t[near]), r,
                                 len(blk))
        yield blk[keep], psi[rows][:, keep]


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


def quasi_psh_check(group, x, r, spacing=0.0125):
    """Finite-difference check of d2 psi / dz dzbar >= -2 D(r,x) g.

    Uses the 9-point Laplacian at spacings h = 1e-3 and h/2; tau is twice
    the largest discrepancy between the two, the empirical discretisation
    scale.  Grid points within Euclidean distance 10h of an orbit point of
    x within r are excluded (psi is log-singular at those, and the bound
    holds distributionally).
    """
    check_spacing(spacing)
    x = complex(x)
    h = 1e-3
    dvalue = density(group, x, r, spacing=max(spacing, 0.02)).value
    if group.is_trivial:
        span = np.arange(-0.7, 0.7001, spacing)
        gx, gy = np.meshgrid(span, span, indexing="ij")
        zs = (gx + 1j * gy).ravel()
        zs = zs[np.abs(zs) < 0.9]
    else:
        zs = dirichlet_domain(group, spacing=spacing).nodes
    # 9-point Laplacians (4*edges + corners - 20*center) / (6 h^2) at h
    # and h/2, each summed in the order of its stencil points
    steps = (h, h / 2.0)
    unit = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 0])
    checked = np.zeros(len(zs), dtype=bool)
    laps = np.zeros((2, len(zs)))
    for blk, psi in _stencil_psi(group, x, r, zs,
                                 np.outer(steps, unit).ravel(), 10.0 * h):
        checked[blk] = True
        for lap, hh, rows in zip(laps, steps, psi.reshape(2, 9, -1)):
            wts = np.array([4.0, 4, 4, 4, 1, 1, 1, 1, -20.0]) / (6.0 * hh * hh)
            lap[blk] = sum(wgt * row for wgt, row in zip(wts, rows))
    zs, (l1, l2) = zs[checked], laps[:, checked]
    tau = 2.0 * float(np.max(np.abs(l1 - l2))) + 1e-9
    margin = 0.25 * l2 + 2.0 * dvalue * bergman_metric(zs)
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
        dv = density(group, x, r).value
        rows.append((float(r), dv, 1.0 / (2.0 * dv)))
    best_r, d_best, bound_density = max(rows, key=lambda t: t[2])
    bound_inj = rho * rho / 2.0
    return SeshadriReport(rho, best_r, d_best, bound_inj, bound_density,
                          max(bound_inj, bound_density), rows)


def ampleness_thresholds(epsilon, n, C=None):
    """Smallest weights m >= 2 clearing each very-ampleness inequality.

    demailly: (m-1) eps > 2n;  main: (m-2) eps > 2n;
    df (only when C given): (m-2+1/C) eps > 2n.  Above 2^53 the
    floating-point test is no longer exact in m, so m must stay below it.
    """
    if not (0 < epsilon < math.inf and 1 <= n <= 2 ** 53):
        raise ValueError("need finite epsilon > 0 and 1 <= n <= 2^53")
    if C is not None and not 0 < C < math.inf:
        raise ValueError("need finite C > 0")

    def smallest(shift):
        # (m + shift) eps <= 2n is monotone in m: walk from near 2n/eps -
        # shift to its first failure with the test itself, ties included
        start = min(max(2.0 * n / epsilon - shift, 0.0), 2.0 ** 53)
        m = max(2, math.floor(start) - 1)
        while m > 2 and (m - 1 + shift) * epsilon > 2.0 * n:
            m -= 1
        while (m + shift) * epsilon <= 2.0 * n:
            m += 1
            if m > 2 ** 53:
                raise ValueError("threshold above 2^53")
        return m

    out = {"demailly": smallest(-1), "main": smallest(-2)}
    if C is not None:
        out["df"] = smallest(-2 + 1.0 / C)
    return out
