"""Poincare series evaluation with tail control, and weighted norms.

All series are truncated to an orbit ball and summed by exact_sum, which
rounds the exact sum of the real and imaginary parts once.  A correctly
rounded sum is unique, so a result is independent of the order and any
partitioning of the terms, and equals math.fsum's to the bit.  Tail
estimates come from geometric extrapolation of the last two displacement
shells; they are honest empirical control, never claimed rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import dirichlet_domain
from .errors import QuadratureDiverged, TargetNotReached, UnboundedSeed
from .geometry import check_disc_point, den_power, mobius_den
from .group import enumerate_ball

# Rational seeds must keep their poles at modulus >= this; closer poles make
# sup norms and quadrature ill-conditioned.
MIN_POLE_MODULUS = 1.05

SHELL_WIDTH = 1.0

# Highest degree polynomial_approx tries before TargetNotReached.
APPROX_DEGREE_CAP = 200


def _horner(coeffs, z, y):
    """sum coeffs[k] z^k into y by Horner's rule in place: y = y z + c per
    coefficient, highest first."""
    y[...] = 0
    for c in coeffs[::-1]:
        y *= z
        y += c
    return y


@dataclass
class SeedFunction:
    """Seed f for a Poincare series: polynomial or rational.

    Polynomial coefficients are low-to-high.  Rational seeds are two
    coefficient lists with the denominator zero-free on the closed disc.
    """

    kind: str                      # "poly" | "rational"
    coeffs: np.ndarray = None
    den_coeffs: np.ndarray = None

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

    def __call__(self, z):
        """f(z): a fresh complex array for an array z, a scalar for 0-d."""
        z = np.asarray(z, dtype=complex)
        scratch = np.empty_like(z) if self.kind == "rational" else None
        out = self.eval_into(z, np.empty_like(z), scratch)
        return out if out.ndim else out[()]

    def eval_into(self, z, out, scratch):
        """f(z) for an array z, written into out (complex, shaped like z).

        Bit for bit the array f(z): the same steps, in place.  A rational
        seed evaluates its denominator in scratch (complex, shaped like z,
        sharing memory with neither z nor out), so no call allocates; a
        polynomial seed does not read scratch.
        """
        _horner(self.coeffs, z, out)
        if self.kind == "rational":
            out /= _horner(self.den_coeffs, z, scratch)
        return out

    @cached_property
    def sup_disc(self):
        """sup |f| on the closed disc (maximum modulus: boundary samples),
        sampled once per seed; every tail estimate of the seed reuses it."""
        th = np.exp(2j * np.pi * np.arange(4096) / 4096)
        return float(np.max(np.abs(self(th))))


@dataclass
class SeriesValue:
    """Value of a truncated orbit sum with its estimated tail."""

    value: complex
    tail_estimate: float
    terms_used: int
    radius_used: float


def exact_sum(terms):
    """Correctly rounded sum of a real or complex array.

    Equals math.fsum(terms) for real terms and complex(fsum(terms.real),
    fsum(terms.imag)) for complex ones: a correctly rounded sum is unique,
    so no bit can differ.  It gets there without fsum's per-term Python
    loop (see _exact_totals).  Where the exact total is zero fsum still
    decides the sign, and inputs the binning cannot take go to fsum whole.
    """
    terms = np.ravel(terms)
    width = 2 if np.iscomplexobj(terms) else 1
    parts = terms.view(np.float64).reshape(-1, width)
    totals, scale = _exact_totals(parts)
    out = [math.fsum(parts[:, k]) if not total      # None, or an exact 0
           else float(total << scale) if scale >= 0
           else total / (1 << -scale)               # int division rounds once
           for k, total in enumerate(totals)]
    return complex(*out) if width == 2 else out[0]


def _exact_totals(parts):
    """Exact column sums of a float array as ints times 2^scale.

    Each term is M 2^e with M an integer, |M| < 2^53.  With e - min(e) =
    16 q + r, the integer M 2^r (|.| < 2^68) is cut into two 26-bit limbs
    and a signed top limb, and np.bincount sums each limb per (column, q).
    Below 2^26 terms every such sum is an integer under 2^53, so it is
    exact; the few bins then meet as Python ints.  Gives None per column
    for empty or overlong input and for non-finite terms or terms near
    overflow, whose sum fsum decides (inf, NaN or an error).
    """
    width = parts.shape[1]
    # NaN fails the comparison; 2^26 terms below 2^996 stay below 2^1022
    if not (0 < len(parts) < 2 ** 26 and np.abs(parts).max() < 2.0 ** 996):
        return [None] * width, 0
    mant, expo = np.frexp(parts)
    lo_exp, hi_exp = int(expo.min()), int(expo.max())
    expo -= lo_exp
    low = np.ldexp(mant, (expo & 15) + 53)
    top = np.floor(low * 2.0 ** -52)
    low -= top * 2.0 ** 52
    mid = np.floor(low * 2.0 ** -26)
    low -= mid * 2.0 ** 26
    nbins = ((hi_exp - lo_exp) >> 4) + 1
    bins = expo >> 4
    bins += np.arange(width, dtype=bins.dtype) * nbins   # one row per column
    bins = bins.ravel()
    sums = np.stack([np.bincount(bins, limb.ravel(), width * nbins)
                     for limb in (low, mid, top)], axis=-1)
    return [sum(((int(c) << 52) + (int(b) << 26) + int(a)) << 16 * q
                for q, (a, b, c) in enumerate(column) if a or b or c)
            for column in sums.reshape(width, nbins, 3).tolist()], lo_exp - 53


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
    # |j|^2 = (|den|^2)^-2, a real power
    terms = (den.real ** 2 + den.imag ** 2) ** -2.0
    value = exact_sum(terms)
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
    jm = den_power(den, 2 * m)
    terms = f(gz) * jm
    value = exact_sum(terms)
    tail = f.sup_disc * _shell_tail(ball.displacements, np.abs(jm), radius)
    return SeriesValue(value, tail, len(ball), radius)


def poincare_values(group, f, m, zs, radius, ball=None):
    """Vectorized truncated P_m(f) on an array of points (plain sum)."""
    zs = check_disc_point(np.atleast_1d(zs).astype(complex))
    if ball is None:
        ball = enumerate_ball(group, 0.0j, radius)
    # Blocks of at most step points keep each workspace row near 2^16 terms
    # (1 MB); two or more points per block keep each column's in-order sum,
    # so no bit moves
    step = max(2, 2 ** 16 // len(ball))
    blocks = np.array_split(zs, max(1, min(-(-zs.size // step),
                                           zs.size // 2)))
    # One workspace per call, reused by every block: fresh arrays per block
    # go back to the system and are faulted in again, 1,581 page faults per
    # 64-point call at R = 10, unless earlier work raised glibc's thresholds.
    # den is spent once den_power has run, so f(gamma z) takes its row; only
    # a rational seed gets a fourth row, for its denominator
    n = len(ball)
    rows = 3 if f.kind == "poly" else 4
    work = np.empty((rows, n * max(map(len, blocks))), dtype=complex)
    sums = []
    for block in blocks:
        gz, den, jm, *spare = (w[:n * len(block)].reshape(n, -1)
                               for w in work)
        ball.terms(block, out=(gz, den))
        den_power(den, 2 * m, out=jm)
        val = f.eval_into(gz, den, spare[0] if spare else None)
        val *= jm
        sums.append(np.sum(val, axis=0))
    return np.concatenate(sums)


def automorphy_residual(group, f, m, g, z, radius):
    """|P(gamma z) j_gamma(z)^m - P(z)| for a truncated Poincare series.

    Exact for the full series; for the truncation it is bounded by the two
    tails, which the caller compares against the reported estimates.
    """
    pz = poincare_eval(group, f, m, z, radius)
    pgz = poincare_eval(group, f, m, g.apply(z), radius)
    jm = den_power(mobius_den(g.alpha, g.beta, z), 2 * m)
    return abs(pgz.value * jm - pz.value), pz, pgz


# ---------------------------------------------------------------------------
# Weighted norms ||f||_{p,l} = Int |f|^p K^{-l} d(lambda)
# ---------------------------------------------------------------------------

# Dense quadrature integrands are evaluated in blocks: the polar grids in
# whole radial rows of about _POLAR_BLOCK points, lemma22_check in
# _BALL_ROWS ball rows.  Each element and each sum keeps its bits.
_POLAR_BLOCK = 2 ** 14
_BALL_ROWS = 8


def _polar_sum(n_r, n_theta, integrand, dtype):
    """np.sum of integrand(z, w, r) over a midpoint polar grid.

    The grid clusters radially, r = 1 - (1-u)^3 for midpoints u, and the
    node weight is w = r dr/du du dtheta.  integrand maps a block of whole
    radial rows, nodes z (rows, n_theta) and their weights w and radii r
    (rows, 1), so that radial factors are taken once per radius, to values
    of dtype.  The blocks fill one output of n_r n_theta values, summed
    once, so the result is the whole grid's sum to the bit.
    """
    du = 1.0 / n_r
    u = (np.arange(n_r) + 0.5) * du
    r = 1.0 - (1.0 - u) ** 3
    jac = 3.0 * (1.0 - u) ** 2          # dr/du
    dth = 2.0 * np.pi / n_theta
    th = (np.arange(n_theta) + 0.5) * dth
    phase = np.exp(1j * th)
    w = r * jac * du * dth
    out = np.empty(n_r * n_theta, dtype)
    grid = out.reshape(n_r, n_theta)
    rows = max(1, _POLAR_BLOCK // n_theta)
    for i in range(0, n_r, rows):
        block = slice(i, i + rows)
        rb = r[block, None]
        grid[block] = integrand(rb * phase, w[block, None], rb)
    return np.sum(out)


def _norm_once(f, p, l, n_r, n_theta):
    def integrand(z, w, r):
        if l != 0.0:
            # K^{-l} = (pi (1-|z|^2)^2)^l, once per radius
            w = w * (np.pi * (1.0 - r ** 2) ** 2) ** l
        return np.abs(f(z)) ** p * w
    return float(_polar_sum(n_r, n_theta, integrand, float))


def check_l(l):
    """Reject a weight exponent l that is not finite and >= 0."""
    if not (np.isfinite(l) and l >= 0):
        raise ValueError(f"l must be finite and >= 0, got {l!r}")


def norm_pl(f, p, l, grid=(800, 512)):
    """(||f||_{p,l}, halving error) by polar quadrature; f takes arrays.

    The error is the change from the grid halved in both directions; past
    1% of the value the grid does not resolve f: QuadratureDiverged.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    check_l(l)
    n_r, n_theta = grid
    i_full = _norm_once(f, p, l, n_r, n_theta)
    err = abs(i_full - _norm_once(f, p, l, n_r // 2, n_theta // 2))
    if err > 0.01 * abs(i_full):
        raise QuadratureDiverged(
            f"halving error {err:g} exceeds 1% of the value {i_full:g}")
    return i_full, err


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
    unfolded: float            # lhs, see lemma22_check
    unfolding_rel_gap: float   # 0.0, see lemma22_check
    partial_lhs: list = field(default_factory=list)  # (radius, value)


def lemma22_check(group, f, m, radius):
    """Compare Int_F sum |f(gamma z) j^m| K^{(2-m)/2} against ||f||_{1,(m-2)/2}.

    Substitution on each orbit tile gamma(F) gives the left side's
    integrand term by term, since 1 - |gamma z|^2 = (1 - |z|^2)|den|^-2:
    the report's unfolded is lhs and its unfolding_rel_gap 0.0, identities
    kept only because the benchmark's reference reports compare key sets
    exactly.
    """
    if m < 2:
        raise ValueError("weight m must be >= 2")
    domain = dirichlet_domain(group, spacing=0.01)
    ball = enumerate_ball(group, 0.0j, radius)
    nodes = domain.nodes
    wts = domain.weights
    kfac = (np.pi * (1.0 - np.abs(nodes) ** 2) ** 2) ** ((m - 2) / 2.0)
    rhs, rhs_err = norm_pl(f, 1, (m - 2) / 2.0)

    # In blocks of ball rows, each row summed over the nodes as a whole, in
    # one workspace per call: fresh block arrays were faulted in again after
    # every block, 37,832 page faults per call at R = 8 in a fresh process
    # against 2,821 with the workspace
    k = min(_BALL_ROWS, len(ball))
    cwork = np.empty((2, k, len(nodes)), dtype=complex)
    work = np.empty((4, k, len(nodes)))
    per_gamma = np.empty(len(ball))
    for i in range(0, len(ball), k):
        block = ball.rows(slice(i, i + k))
        gz, den = (w[:len(block)] for w in cwork)
        absf, absden, t, p = (w[:len(block)] for w in work)
        block.terms(nodes, out=(gz, den))
        np.abs(den, out=absden)
        # f(gz) goes into den's buffer, which is no longer needed; t and p
        # are free until after it, and their two real rows hold the one
        # complex block a rational seed needs as scratch
        scratch = work[2:].reshape(-1).view(complex)[:gz.size]
        np.abs(f.eval_into(gz, den, scratch.reshape(gz.shape)), out=absf)
        # in place, but the steps of wts * absf * absden ** (-2 * m) * kfac
        np.multiply(wts, absf, out=t)
        t *= np.power(absden, -2 * m, out=p)
        t *= kfac
        np.sum(t, axis=1, out=per_gamma[i:i + k])

    lhs = exact_sum(per_gamma)
    # each shell's sum correctly rounded, so a shell at the radius is lhs
    shells = np.arange(1.0, radius + 0.5 * SHELL_WIDTH, SHELL_WIDTH)
    ends = np.searchsorted(ball.displacements, shells, "right")
    partial = [(float(s), exact_sum(per_gamma[:n]))
               for s, n in zip(shells, ends)]
    return IntegralBoundReport(
        lhs=lhs, rhs=rhs, rhs_quadrature_error=rhs_err,
        holds=lhs <= rhs + 0.01 * rhs + rhs_err,
        unfolded=lhs, unfolding_rel_gap=0.0, partial_lhs=partial)


# ---------------------------------------------------------------------------
# Polynomial approximation of bounded seeds
# ---------------------------------------------------------------------------

@dataclass
class PolyApproxResult:
    poly: SeedFunction
    achieved_norm: float
    dilation: float
    degree: int


def polynomial_approx(f, l, delta, dilation=None):
    """Polynomial h with ||f - h||_{1,l} < delta, by dilated Taylor series.

    Rational seeds (poles at modulus >= 1.05) are holomorphic past the
    closed disc, so the dilation t defaults to 1.  Degrees are tried
    greedily until the measured norm plus its halving error clears the
    target.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    check_l(l)
    t = 1.0 if dilation is None else float(dilation)
    if not 0.0 < t <= 1.0:
        raise ValueError("dilation t must lie in (0, 1]")
    if f.kind == "poly":
        if dilation is not None:
            raise ValueError(f"dilation: a polynomial seed takes none, "
                             f"got {dilation!r}")
        return PolyApproxResult(f, 0.0, 1.0, len(f.coeffs) - 1)

    th = np.exp(2j * np.pi * np.arange(4096) / 4096)
    coeffs = np.fft.fft(f(t * th)) / 4096  # Taylor coefficients of f(t z)

    degree, cap = 1, APPROX_DEGREE_CAP      # read at each call
    while degree <= cap:
        h = SeedFunction.poly(coeffs[:degree + 1])
        achieved, err = norm_pl(lambda z: f(z) - h(z), 1, l,
                                grid=(400, 256))
        if achieved + err < delta:
            return PolyApproxResult(h, achieved, t, degree)
        degree = min(2 * degree, cap) if degree < cap else cap + 1
    raise TargetNotReached(
        f"degree cap {cap} hit before ||f-h||_(1,{l}) < {delta}")
