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

from .domain import dirichlet_domain
from .errors import DegenerateBasis, EquivalentPoints
from .geometry import disc_points
from .group import enumerate_ball, orbit_counts

RANK_TOL = 1e-8
EQUIV_TOL = 1e-6


def eval_sections(group, m, d, z, radius=8.0, ball=None):
    """Values and dz-derivatives of truncated P_m(z^k), k = 0..d.

    Returns two arrays of shape (d+1, len(z)).
    """
    if m < 2 or d < 1:
        raise ValueError("need m >= 2 and d >= 1")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if ball is None:
        ball = enumerate_ball(group, 0.0j, radius)
    gz, den = ball.terms(z)
    j = den ** -2
    jm = den ** (-2 * m)
    dfac = -2.0 * m * np.conj(ball.betas[:, None]) * den ** (-2 * m - 1)
    vals = np.empty((d + 1, len(z)), dtype=complex)
    ders = np.empty((d + 1, len(z)), dtype=complex)
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
    return vals, ders


@dataclass
class SectionBasis:
    group: object
    m: int
    degree: int
    radius: float
    sample_points: np.ndarray
    values: np.ndarray      # (d+1, n_samples)
    derivs: np.ndarray
    ball: object = None

    def at(self, z):
        """Fresh (values, derivatives) columns at arbitrary points."""
        return eval_sections(self.group, self.m, self.degree, z,
                             self.radius, ball=self.ball)


def build_basis(group, m, d, radius, sample_points):
    pts = np.atleast_1d(np.asarray(sample_points, dtype=complex))
    ball = enumerate_ball(group, 0.0j, radius)
    vals, ders = eval_sections(group, m, d, pts, radius, ball=ball)
    return SectionBasis(group, m, d, radius, pts, vals, ders, ball)


@dataclass
class SeparationResult:
    passed: bool
    singular_ratio: float   # smallest / largest singular value
    singular_values: tuple


def _rank2_test(matrix):
    s = np.linalg.svd(matrix, compute_uv=False)
    ratio = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return SeparationResult(ratio > RANK_TOL, ratio,
                            tuple(float(v) for v in s))


def jet_separation_test(basis, x):
    """Rank-2 test on values and first derivatives at x.

    Full rank means some section is nonzero at x and the derivative row is
    not proportional to the value row: the sections separate first-order
    jets at x.
    """
    vals, ders = basis.at(np.array([complex(x)]))
    if np.max(np.abs(vals)) < 1e-12:
        raise DegenerateBasis(f"all sections vanish at {x}")
    return _rank2_test(np.vstack([vals[:, 0], ders[:, 0]]))


def point_separation_test(basis, x, y):
    """Rank-2 test on section values at two inequivalent points."""
    x, y = complex(x), complex(y)
    if int(orbit_counts(basis.group, x, np.array([y]), EQUIV_TOL)[0]) > 0:
        raise EquivalentPoints(f"{y} lies on the orbit of {x}")
    vals, _ = basis.at(np.array([x, y]))
    return _rank2_test(vals.T)


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
    threshold_m: int = None     # from the density/injectivity certificate


def sample_fundamental_domain(group, n, seed=0):
    """Uniform (Euclidean) rejection samples from the fundamental domain."""
    rng = np.random.default_rng(seed)
    if group.is_trivial:
        return disc_points(rng, n, 0.9)
    domain = dirichlet_domain(group, 0.0j, spacing=0.05)
    rad = max(abs(v) for v in domain.vertices)
    out = []
    while len(out) < n:
        cand = (rng.random(4 * n) * 2 - 1) * rad \
            + 1j * (rng.random(4 * n) * 2 - 1) * rad
        keep = domain.contains(cand * 0.98)
        out.extend(cand[keep] * 0.98)
    return np.array(out[:n])


def very_ampleness_scan(group, m, d=6, radius=8.0, n_samples=100, seed=0,
                        threshold_m=None):
    """Jet tests at n_samples points and point tests at n_samples pairs."""
    pts = sample_fundamental_domain(group, 3 * n_samples, seed=seed)
    basis = build_basis(group, m, d, radius, pts[:1])
    jet_ratios = []
    jet_fail = []
    for z in pts[:n_samples]:
        res = jet_separation_test(basis, z)
        jet_ratios.append(res.singular_ratio)
        if not res.passed:
            jet_fail.append(complex(z))
    pt_ratios = []
    pt_fail = []
    pairs = zip(pts[n_samples:2 * n_samples], pts[2 * n_samples:])
    for x, y in pairs:
        try:
            res = point_separation_test(basis, x, y)
        except EquivalentPoints:
            continue
        pt_ratios.append(res.singular_ratio)
        if not res.passed:
            pt_fail.append((complex(x), complex(y)))
    return ScanReport(
        m=m, degree=d, radius=radius, n_samples=n_samples,
        jet_pass_rate=1.0 - len(jet_fail) / max(len(jet_ratios), 1),
        point_pass_rate=1.0 - len(pt_fail) / max(len(pt_ratios), 1),
        min_jet_ratio=float(min(jet_ratios)),
        min_point_ratio=float(min(pt_ratios)),
        jet_failures=jet_fail, point_failures=pt_fail,
        threshold_m=threshold_m)
