"""Poincare series evaluation with tail control, and weighted norms.

All series are truncated to an orbit ball and summed by exact_sum, which
splits the terms exactly into a few levels and rounds their exact total
once, real and imaginary parts apart: a correctly rounded sum is unique,
so it is math.fsum's to the bit, whatever the terms' order.  Tail
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

LEVEL_CAP = 24      # most extraction levels before fsum takes the terms


def _horner(coeffs, z, y):
    """sum coeffs[k] z^k into y by Horner's rule in place: y = y z + c per
    coefficient, highest first."""
    y[...] = 0
    for c in coeffs[::-1]:
        y *= z
        y += c
    return y


def _finite(name, coeffs):
    """coeffs as a complex array; a NaN or infinite one is a ValueError."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{name} {coeffs.tolist()} has a non-finite "
                         f"coefficient")
    return coeffs


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
        return SeedFunction("poly", coeffs=_finite("polynomial seed", coeffs))

    @staticmethod
    def rational(num, den):
        num = _finite("rational seed numerator", num)
        den = _finite("rational seed denominator", den)
        if not np.any(den):
            raise UnboundedSeed(f"rational seed denominator {den.tolist()} "
                                f"has no non-zero coefficient")
        roots = np.roots(den[::-1]) if len(den) > 1 else np.array([])
        if len(roots) and np.min(np.abs(roots)) < MIN_POLE_MODULUS:
            raise UnboundedSeed(
                f"rational seed has a pole at modulus "
                f"{np.min(np.abs(roots)):.4f} < {MIN_POLE_MODULUS}")
        return SeedFunction("rational", coeffs=num, den_coeffs=den)

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
        polynomial seed does not read scratch, and a constant one (see
        constant) not z either.
        """
        if self.constant:
            out[...] = self.coeffs[0]
            return out
        _horner(self.coeffs, z, out)
        if self.kind == "rational":
            out /= _horner(self.den_coeffs, z, scratch)
        return out

    @cached_property
    def constant(self):
        """Whether f is one polynomial coefficient c with no part -0.0, so
        that f(gamma z) needs no gamma z.  Horner's 0 z + c is c to the bit
        unless a part of c is -0.0: that part of the sum is +0.0 wherever
        the same part of 0 z is +0.0."""
        parts = np.array([self.coeffs.real, self.coeffs.imag])
        return (self.kind == "poly" and parts.size == 2
                and not np.any(np.signbit(parts) & (parts == 0)))

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
    so no bit can differ.  It avoids fsum's per-term Python loop by error-
    free vector extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008).  For n terms p, 2^M >= n + 2 and sigma = 2^s >= 2^M max|p_i|,
    fl(sigma + p_i) lies in [sigma/2, 2 sigma], so q_i = fl(sigma + p_i) -
    sigma is exact (Sterbenz), a multiple of 2^-53 sigma with |q_i| <=
    2^-M sigma, and p_i - q_i, the rounding error of the add, is a float of
    modulus <= 2^-53 sigma.  Any partial sum of the q_i is a multiple of
    2^-53 sigma below n 2^-M sigma < sigma, so np.sum is exact in any
    order.  Below 2^-1074 the grid is 2^-1074 and the same holds, so
    subnormal terms need no case; sigma is a power of two, at most 2^1000.
    The remainders repeat this with sigma <- b = 2^(M-53) sigma.  Real and
    imaginary parts share sigma in one (2, n) copy.

    From the second level on, a part's exact total T is S + E, with S the
    exact sum of its level sums so far and E that of its remainders, |E| <=
    n 2^-53 sigma < b.  Rounding to nearest is monotone, so fl(S - b) <=
    fl(T) <= fl(S + b), and fsum, correctly rounded, gives fl(S - b) and
    fl(S + b) from the level sums and -b or b.  Where the two are equal in
    every part they are fl(T), fsum's result for the terms, and the sum
    stops there.  Equal ends are non-zero: S - b and S + b, multiples of
    2^-1074 that are not both 0, round to 0 only when they are 0, so an
    exact zero total never stops early.  The check waits while b is
    subnormal, where 2^(M-53) sigma may round.  Otherwise the levels go on
    until the remainders are zero, and fsum rounds the exact total of the
    level sums once.

    fsum sums the terms themselves where they are empty, non-finite or of
    modulus >= 2^(1000-M) (it decides inf, NaN or an error), where they
    need more than LEVEL_CAP levels, and where the exact total is zero (it
    decides the sign).  Only IEEE add and subtract, exact max and min and
    exact sums run, so the bits are the same at every SIMD dispatch level.
    """
    terms = np.ravel(terms)
    width = 2 if np.iscomplexobj(terms) else 1
    parts = terms.view(np.float64).reshape(-1, width).T
    M = (parts.shape[1] + 1).bit_length()
    rest = np.array(parts, order="C")               # a copy: levels write it
    # NaN anywhere makes both NaN, so top is NaN
    top = max(rest.max(), -rest.min()) if rest.size else math.nan

    def rounded(inputs):
        # per part, fsum of its first sequence with a non-zero total, else
        # of its last
        out = []
        for cols in inputs:
            for col in cols:
                total = math.fsum(col)
                if total:
                    break
            out.append(total)
        return complex(*out) if width == 2 else out[0]

    inputs = [(col,) for col in parts]              # fsum sums the terms
    if top < 2.0 ** (1000 - M):                     # NaN fails too
        sums, q = np.empty((LEVEL_CAP, width)), np.empty_like(rest)
        sigma = math.ldexp(1.0, math.frexp(top)[1] + M)
        for level in range(LEVEL_CAP):
            np.add(rest, sigma, out=q)
            q -= sigma
            q.sum(axis=1, out=sums[level])
            sigma *= 2.0 ** (M - 53)                # b, past every |E|
            if level and sigma >= 2.0 ** -1022:     # b is normal
                levels = sums[:level + 1].T.tolist()
                low = rounded([(p + [-sigma],) for p in levels])
                if low == rounded([(p + [sigma],) for p in levels]):
                    return low
            rest -= q
            if not rest.any():  # the level sums, then the terms if they're 0
                inputs = list(zip(sums[:level + 1].T, parts))
                break
    return rounded(inputs)


def _shell_tail(displacements, terms, radius):
    """Geometric-ratio extrapolation of the series tail.

    Fits |shell sum| ~ c q^R on the last two displacement shells of width
    SHELL_WIDTH and sums the geometric tail.  The displacements are sorted,
    so each shell is a slice, and |terms| is taken from the first on.
    """
    if len(displacements) <= 1 or radius <= 2 * SHELL_WIDTH:
        return (0.0 if len(displacements) <= 1
                else float(np.sum(np.abs(terms))))
    lo, hi = np.searchsorted(displacements, [radius - 2 * SHELL_WIDTH,
                                             radius - SHELL_WIDTH], "right")
    abs_terms = np.abs(terms[lo:])
    s2 = float(np.sum(abs_terms[hi - lo:]))
    s1 = float(np.sum(abs_terms[:hi - lo]))
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
    _, den = ball.terms(z, out=(None, np.empty(len(ball), complex)))
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
    # a constant seed reads no gamma z, so none is formed; den is spent
    # once den_power has run, so f(gamma z) takes its row, and a rational
    # seed's denominator a third (as in poincare_values)
    gz, den, *spare = np.empty((2 if f.kind == "poly" else 3, len(ball)),
                               complex)
    ball.terms(z, out=(None if f.constant else gz, den))
    jm = den_power(den, 2 * m)
    terms = f.eval_into(gz, den, spare[0] if spare else None)
    terms *= jm
    value = exact_sum(terms)
    tail = f.sup_disc * _shell_tail(ball.displacements, jm, radius)
    return SeriesValue(value, tail, len(ball), radius)


def poincare_values(group, f, m, zs, radius, ball=None):
    """Vectorized truncated P_m(f) on an array of points (plain sum)."""
    zs = check_disc_point(np.atleast_1d(zs).astype(complex))
    if ball is None:
        ball = enumerate_ball(group, 0.0j, radius)
    blocks = ball.point_blocks(zs)
    # One workspace per call, reused by every block: fresh arrays per block
    # go back to the system and are faulted in again, 1,581 page faults per
    # 64-point call at R = 10, unless earlier work raised glibc's thresholds.
    # den is spent once den_power has run, so f(gamma z) takes its row; only
    # a rational seed gets a fourth row, for its denominator.  A constant
    # seed reads no gamma z, so its row is left unwritten
    n = len(ball)
    rows = 3 if f.kind == "poly" else 4
    work = np.empty((rows, n * max(map(len, blocks))), dtype=complex)
    sums = []
    for block in blocks:
        gz, den, jm, *spare = (w[:n * len(block)].reshape(n, -1)
                               for w in work)
        ball.terms(block, out=(None if f.constant else gz, den))
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
    # against 2,821 with the workspace.  A constant seed forms no gamma z,
    # and its |f| is |c| at every term, taken once by the array np.abs
    absc = np.abs(f.coeffs) if f.constant else None
    k = min(_BALL_ROWS, len(ball))
    cwork = np.empty((2, k, len(nodes)), dtype=complex)
    work = np.empty((4, k, len(nodes)))
    per_gamma = np.empty(len(ball))
    for i in range(0, len(ball), k):
        block = ball.rows(slice(i, i + k))
        gz, den = (w[:len(block)] for w in cwork)
        absf, absden, t, p = (w[:len(block)] for w in work)
        block.terms(nodes, out=(None if f.constant else gz, den))
        np.abs(den, out=absden)
        if f.constant:
            absf = absc
        else:
            # f(gz) goes into den's buffer, which is no longer needed; t and
            # p are free until after it, and their two real rows hold the
            # one complex block a rational seed needs as scratch
            scratch = work[2:].reshape(-1).view(complex)[:gz.size]
            np.abs(f.eval_into(gz, den, scratch.reshape(gz.shape)),
                   out=absf)
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
