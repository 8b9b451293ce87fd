"""Numerical very-ampleness certificates from truncated Poincare bases.

Sections are truncated series P_m(z^k), k = 0..d, with first derivatives
by term-wise differentiation:

    d/dz [f(gamma z) j^m] = f'(gamma z) j^(m+1)
                            - 2 m conj(beta) f(gamma z) den^(-2m-1),

where den = conj(beta) z + conj(alpha) and j = den^(-2).  Jet and point
separation are rank-2 tests on 2 x (d+1) matrices of section values; the
scan is a certificate generator over random samples, not a proof of very
ampleness (sampling cannot certify injectivity globally).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import dirichlet_vertices
from .errors import DegenerateBasis
from .geometry import (check_disc_point, den_power, disc_points,
                       in_convex_polygon)
from .group import enumerate_ball, orbit_counts

RANK_TOL = 1e-8
EQUIV_TOL = 1e-6


def eval_sections(group, m, d, z, radius):
    """Values and dz-derivatives of P_m(z^k), k = 0..d, truncated at radius.

    Returns two arrays of shape (d+1, len(z)); the points are taken in the
    ball's point blocks.
    """
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 and d >= 1")
    z = check_disc_point(np.atleast_1d(z))
    ball = enumerate_ball(group, 0.0j, radius)
    tables = []
    for block in ball.point_blocks(z):
        gz, den = ball.terms(block)
        j = den_power(den, 2)
        jm = den_power(den, 2 * m)
        dfac = -2.0 * m * np.conj(ball.betas[:, None]) * (jm / den)
        vals = np.empty((d + 1, len(block)), dtype=complex)
        ders = np.empty((d + 1, len(block)), dtype=complex)
        gzk = np.ones_like(gz)          # (gamma z)^k
        gzk_prev = None
        for k in range(d + 1):
            vals[k] = np.sum(gzk * jm, axis=0)
            if k == 0:
                ders[k] = np.sum(gzk * dfac, axis=0)
            else:
                ders[k] = np.sum(k * gzk_prev * j * jm + gzk * dfac, axis=0)
            gzk_prev = gzk
            gzk = gzk * gz
        tables.append((vals, ders))
    return tuple(np.concatenate(t, axis=1) for t in zip(*tables))


@dataclass
class ScanReport:
    m: int
    degree: int
    radius: float
    n_samples: int
    jet_pass_rate: float
    point_pass_rate: float
    min_jet_ratio: float
    min_point_ratio: float
    jet_failures: list = field(default_factory=list)
    point_failures: list = field(default_factory=list)
    threshold_m: int = None     # never set; a key of the reports


def sample_fundamental_domain(group, n, seed):
    """Uniform (Euclidean) rejection samples from the fundamental domain."""
    rng = np.random.default_rng(seed)
    if group.is_trivial:
        return disc_points(rng, n, 0.9)
    poly = dirichlet_vertices(group)
    rad = max(abs(v) for v in poly)
    out = []
    while len(out) < n:
        cand = (rng.random(4 * n) * 2 - 1) * rad \
            + 1j * (rng.random(4 * n) * 2 - 1) * rad
        keep = in_convex_polygon(poly, cand * 0.98)
        out.extend(cand[keep] * 0.98)
    return np.array(out[:n])


def very_ampleness_scan(group, m, n_samples, d=6, radius=8.0, seed=0):
    """Jet tests at n_samples points and point tests at n_samples pairs.

    One table of sections over all 3 n_samples samples: columns 0..n-1 are
    the jet points, and pair i is columns n+i and 2n+i.  Pairs on one orbit
    are skipped, since their value columns are proportional.
    """
    # the sections' ball first, so that the sampler's domain ball is a slice
    enumerate_ball(group, 0.0j, radius)
    pts = sample_fundamental_domain(group, 3 * n_samples, seed=seed)
    vals, ders = eval_sections(group, m, d, pts, radius)
    n = n_samples
    dead = np.max(np.abs(vals[:, :n]), axis=0) < 1e-12
    if np.any(dead):
        raise DegenerateBasis(f"all sections vanish at {pts[np.argmax(dead)]}")
    xs, ys = pts[n:2 * n], pts[2 * n:]
    keep = orbit_counts(group, xs, ys, EQUIV_TOL) == 0
    # rank-2 tests on stacked 2 x (d+1) matrices: (values, derivatives) at
    # each jet point, the two value columns of each kept pair
    jet_s = np.linalg.svd(np.stack([vals[:, :n].T, ders[:, :n].T], axis=1),
                          compute_uv=False)
    pair_s = np.linalg.svd(np.stack([vals[:, n:2 * n].T, vals[:, 2 * n:].T],
                                    axis=1)[keep], compute_uv=False)
    jet_ratios, pt_ratios = (
        np.divide(s[:, -1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] > 0)
        for s in (jet_s, pair_s))
    jet_fail = [complex(z) for z in pts[:n][~(jet_ratios > RANK_TOL)]]
    bad = ~(pt_ratios > RANK_TOL)
    pt_fail = [(complex(x), complex(y))
               for x, y in zip(xs[keep][bad], ys[keep][bad])]
    return ScanReport(
        m=m, degree=d, radius=radius, n_samples=n_samples,
        jet_pass_rate=1.0 - len(jet_fail) / max(len(jet_ratios), 1),
        point_pass_rate=1.0 - len(pt_fail) / max(len(pt_ratios), 1),
        min_jet_ratio=float(min(jet_ratios)),
        min_point_ratio=float(min(pt_ratios)),
        jet_failures=jet_fail, point_failures=pt_fail)
