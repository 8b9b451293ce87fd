"""Poincare series evaluation with tail control, and weighted norms.

All series are truncated to an orbit ball and accumulated in displacement
order with error-free summation (math.fsum on real and imaginary parts), so
a result is independent of any internal partitioning of the terms.  Tail
estimates come from geometric extrapolation of the last two displacement
shells; they are honest empirical control, never claimed rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureDiverged, TargetNotReached, UnboundedSeed
from .geometry import check_disc_point
from .group import enumerate_ball

# Rational seeds must keep their poles at modulus >= this; closer poles make
# sup norms and quadrature ill-conditioned.
MIN_POLE_MODULUS = 1.05

SHELL_WIDTH = 1.0


@dataclass
class SeedFunction:
    """Seed f for a Poincare series: polynomial, rational or callable.

    Polynomial coefficients are low-to-high.  Rational seeds are two
    coefficient lists with the denominator zero-free on the closed disc.
    """

    kind: str                      # "poly" | "rational" | "callable"
    coeffs: np.ndarray = None
    den_coeffs: np.ndarray = None
    func: object = None

    @staticmethod
    def poly(coeffs):
        return SeedFunction("poly", coeffs=np.asarray(coeffs, dtype=complex))

    @staticmethod
    def rational(num, den):
        den = np.asarray(den, dtype=complex)
        if not np.any(den):
            raise UnboundedSeed(f"rational seed denominator {den.tolist()} "
                                f"has no non-zero coefficient")
        roots = np.roots(den[::-1]) if len(den) > 1 else np.array([])
        if len(roots) and np.min(np.abs(roots)) < MIN_POLE_MODULUS:
            raise UnboundedSeed(
                f"rational seed has a pole at modulus "
                f"{np.min(np.abs(roots)):.4f} < {MIN_POLE_MODULUS}")
        return SeedFunction("rational", coeffs=np.asarray(num, dtype=complex),
                            den_coeffs=den)

    @staticmethod
    def from_callable(func):
        return SeedFunction("callable", func=func)

    def __call__(self, z):
        if self.kind == "poly":
            return np.polyval(self.coeffs[::-1], z)
        if self.kind == "rational":
            return (np.polyval(self.coeffs[::-1], z)
                    / np.polyval(self.den_coeffs[::-1], z))
        return self.func(z)

    @property
    def degree(self):
        if self.kind != "poly":
            raise ValueError("degree of a non-polynomial seed")
        return len(self.coeffs) - 1

    def sup_disc(self):
        """sup |f| on the closed disc (maximum modulus: boundary samples)."""
        th = np.exp(2j * np.pi * np.arange(4096) / 4096)
        if self.kind == "callable":
            # callables need not extend to the boundary; sample radially too
            rs = np.linspace(0, 0.999, 64)
            return float(np.max(np.abs(self(rs[:, None] * th[None, :]))))
        return float(np.max(np.abs(self(th))))


ONE = SeedFunction.poly([1.0])


@dataclass
class SeriesValue:
    """Value of a truncated orbit sum with its estimated tail."""

    value: complex
    tail_estimate: float
    terms_used: int
    radius_used: float


def _fsum_complex(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _shell_tail(displacements, abs_terms, radius):
    """Geometric-ratio extrapolation of the series tail.

    Fits |shell sum| ~ c q^R on the last two displacement shells of width
    SHELL_WIDTH and sums the geometric tail.
    """
    if len(displacements) <= 1 or radius <= 2 * SHELL_WIDTH:
        return 0.0 if len(displacements) <= 1 else float(np.sum(abs_terms))
    hi = displacements > radius - SHELL_WIDTH
    mid = (displacements > radius - 2 * SHELL_WIDTH) & ~hi
    s2 = float(np.sum(abs_terms[hi]))
    s1 = float(np.sum(abs_terms[mid]))
    if s2 == 0.0:
        return 0.0
    if s1 <= s2:
        return s2  # no decay visible; report the last shell itself
    q = s2 / s1
    return s2 * q / (1.0 - q)


def weight_sum(group, x, z, radius):
    """Truncated sum of |j_gamma(z)|^2 over the orbit ball at x."""
    z = check_disc_point(complex(z))
    ball = enumerate_ball(group, x, radius)
    _, den = ball.terms(z)
    terms = np.abs(den ** -2) ** 2
    value = math.fsum(terms)
    tail = _shell_tail(ball.displacements, terms, radius)
    return SeriesValue(value, tail, len(ball), radius)


def poincare_eval(group, f, m, z, radius, ball=None):
    """Truncated Poincare series P_m(f)(z) = sum f(gamma z) j_gamma(z)^m."""
    if m < 2:
        raise ValueError("weight m must be >= 2")
    z = check_disc_point(complex(z))
    if ball is None:
        ball = enumerate_ball(group, 0.0j, radius)
    gz, den = ball.terms(z)
    jm = den ** (-2 * m)
    terms = f(gz) * jm
    value = _fsum_complex(terms)
    tail = f.sup_disc() * _shell_tail(ball.displacements, np.abs(jm), radius)
    return SeriesValue(value, tail, len(ball), radius)


def poincare_values(group, f, m, zs, radius, ball=None):
    """Vectorized truncated P_m(f) on an array of points (plain sum)."""
    zs = check_disc_point(np.asarray(zs, dtype=complex))
    if ball is None:
        ball = enumerate_ball(group, 0.0j, radius)
    gz, den = ball.terms(zs)
    return np.sum(f(gz) * den ** (-2 * m), axis=0)


def automorphy_residual(group, f, m, g, z, radius):
    """|P(gamma z) j_gamma(z)^m - P(z)| for a truncated Poincare series.

    Exact for the full series; for the truncation it is bounded by the two
    tails, which the caller compares against the reported estimates.
    """
    pz = poincare_eval(group, f, m, z, radius)
    pgz = poincare_eval(group, f, m, g.apply(z), radius)
    return abs(pgz.value * g.jac(z) ** m - pz.value), pz, pgz


# ---------------------------------------------------------------------------
# Weighted norms ||f||_{p,l} = Int |f|^p K^{-l} d(lambda)
# ---------------------------------------------------------------------------

def _polar_grid(n_r, n_theta):
    """Midpoint polar grid with radial clustering r = 1 - (1-u)^3."""
    du = 1.0 / n_r
    u = (np.arange(n_r) + 0.5) * du
    r = 1.0 - (1.0 - u) ** 3
    jac = 3.0 * (1.0 - u) ** 2          # dr/du
    dth = 2.0 * np.pi / n_theta
    th = (np.arange(n_theta) + 0.5) * dth
    z = r[:, None] * np.exp(1j * th[None, :])
    w = (r * jac * du * dth)[:, None] * np.ones_like(th)[None, :]
    return z.ravel(), w.ravel()


def _norm_once(f, p, l, n_r, n_theta):
    z, w = _polar_grid(n_r, n_theta)
    vals = np.abs(f(z)) ** p
    if l != 0.0:
        # K^{-l} = (pi (1-|z|^2)^2)^l
        vals = vals * (np.pi * (1.0 - np.abs(z) ** 2) ** 2) ** l
    return float(np.sum(vals * w))


def norm_pl(f, p, l, grid=(800, 512), full_output=False):
    """||f||_{p,l} by polar quadrature with a grid-halving error estimate."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if l < 0:
        raise ValueError("l must be >= 0")
    n_r, n_theta = grid
    i_full = _norm_once(f, p, l, n_r, n_theta)
    i_half = _norm_once(f, p, l, n_r // 2, n_theta // 2)
    i_quarter = _norm_once(f, p, l, n_r // 4, n_theta // 4)
    err = abs(i_full - i_half)
    err_prev = abs(i_half - i_quarter)
    if err > err_prev * 4.0 and err > 1e-12 * abs(i_full):
        raise QuadratureDiverged(
            f"halving estimate grew: {err_prev:g} -> {err:g}")
    if full_output:
        return i_full, err
    return i_full


# ---------------------------------------------------------------------------
# Integral bound checks
# ---------------------------------------------------------------------------

@dataclass
class IntegralBoundReport:
    """Both sides of an integral inequality plus cross-checks."""

    lhs: float
    rhs: float
    rhs_quadrature_error: float
    holds: bool
    unfolded: float
    unfolding_rel_gap: float
    partial_lhs: list = field(default_factory=list)  # (radius, value)


def lemma22_check(group, f, m, radius=6.0):
    """Compare Int_F sum |f(gamma z) j^m| K^{(2-m)/2} against ||f||_{1,(m-2)/2}.

    Also recomputes the truncated left side by substitution on each orbit
    tile gamma(F) (push the quadrature nodes forward, weight by |j|^2) and
    reports the relative gap between both routes.
    """
    if m < 2:
        raise ValueError("weight m must be >= 2")
    from .domain import dirichlet_domain
    domain = dirichlet_domain(group, 0.0j, spacing=0.01)
    ball = enumerate_ball(group, 0.0j, radius)
    nodes = domain.nodes
    wts = domain.weights
    kfac = (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** ((m - 2) / 2.0)

    gz, den = ball.terms(nodes)
    absf = np.abs(f(gz))
    absden = np.abs(den)
    per_gamma = np.sum(wts * absf * absden ** (-2 * m) * kfac, axis=1)
    # substitution route: integrate |f| K^{(2-m)/2} over each tile
    tile_w = wts * absden ** -4
    tile_k = (np.pi * (1.0 - np.abs(gz) ** 2) ** 2) ** ((m - 2) / 2.0)
    unfolded = np.sum(tile_w * absf * tile_k, axis=1)

    lhs = math.fsum(per_gamma)
    unfolded_total = math.fsum(unfolded)
    rhs, rhs_err = norm_pl(f, 1, (m - 2) / 2.0, full_output=True)
    cum = np.cumsum(per_gamma)
    shells = np.arange(1.0, radius + 0.5 * SHELL_WIDTH, SHELL_WIDTH)
    partial = [(float(s), float(cum[ball.displacements <= s][-1]))
               for s in shells if np.any(ball.displacements <= s)]
    gap = abs(unfolded_total - lhs) / max(lhs, 1e-300)
    return IntegralBoundReport(
        lhs=lhs, rhs=rhs, rhs_quadrature_error=rhs_err,
        holds=lhs <= rhs + 0.01 * rhs + rhs_err,
        unfolded=unfolded_total, unfolding_rel_gap=gap,
        partial_lhs=partial)


@dataclass
class SchwarzReport:
    lhs_sq: float                  # (sum |f(gamma z) j^m|)^2
    rhs: float                     # sum |f^2 j^{2m-2}| * sum |j|^2
    holds_at_every_prefix: bool
    max_prefix_ratio: float        # max over prefixes of lhs^2 / rhs


def schwarz_bound_check(group, f, m, z, radius):
    """Cauchy-Schwarz comparison of the three truncated orbit sums.

    ||P_m(f)||(z)^2 <= ||P_{2m-2}(f^2)||(z) * sum |j|^2 holds term-wise at
    every truncation, so it is asserted at every prefix of the
    displacement-ordered sum.
    """
    z = check_disc_point(complex(z))
    ball = enumerate_ball(group, 0.0j, radius)
    gz, den = ball.terms(z)
    jm = den ** (-2 * m)
    fz = f(gz)
    a = np.cumsum(np.abs(fz * jm))
    b = np.cumsum(np.abs(fz ** 2 * jm ** 2 * den ** 4))
    c = np.cumsum(np.abs(jm) ** (2.0 / m))
    ratios = a ** 2 / np.maximum(b * c, 1e-300)
    return SchwarzReport(
        lhs_sq=float(a[-1] ** 2), rhs=float(b[-1] * c[-1]),
        holds_at_every_prefix=bool(np.all(ratios <= 1.0 + 1e-12)),
        max_prefix_ratio=float(np.max(ratios)))


# ---------------------------------------------------------------------------
# Polynomial approximation of bounded seeds
# ---------------------------------------------------------------------------

@dataclass
class PolyApproxResult:
    poly: SeedFunction
    achieved_norm: float
    dilation: float
    degree: int


def polynomial_approx(f, l, delta, dilation=None, max_degree=200):
    """Polynomial h with ||f - h||_{1,l} < delta, by dilated Taylor series.

    Rational seeds (poles at modulus >= 1.05) are holomorphic past the
    closed disc, so no dilation is needed; other bounded seeds must supply
    a dilation parameter t < 1.  Degrees are tried greedily until the
    measured norm clears the target.
    """
    if f.kind == "poly":
        return PolyApproxResult(f, 0.0, 1.0, f.degree)
    if dilation is None:
        if f.kind != "rational":
            raise ValueError("bounded non-rational seeds need a dilation "
                             "parameter t < 1")
        t = 1.0
    else:
        t = float(dilation)
        if not 0.0 < t <= 1.0:
            raise ValueError("dilation t must lie in (0, 1]")

    th = np.exp(2j * np.pi * np.arange(4096) / 4096)
    coeffs = np.fft.fft(f(t * th)) / 4096  # Taylor coefficients of f(t z)

    degree = 1
    while degree <= max_degree:
        h = SeedFunction.poly(coeffs[:degree + 1])
        achieved = norm_pl(
            SeedFunction.from_callable(lambda z: f(z) - h(z)),
            1, l, grid=(400, 256))
        if achieved < delta:
            return PolyApproxResult(h, achieved, t, degree)
        degree = min(2 * degree, max_degree) if degree < max_degree \
            else max_degree + 1
    raise TargetNotReached(
        f"degree cap {max_degree} hit before ||f-h||_(1,{l}) < {delta}")
