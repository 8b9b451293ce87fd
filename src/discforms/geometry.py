"""Hyperbolic geometry of the unit disc.

Everything in the library runs on the Poincare disc with one fixed metric
normalization: the Kahler form is ``omega = i d d-bar log K`` for the Bergman
kernel ``K(z,z) = 1/(pi (1-|z|^2)^2)``, and the Riemannian line element is

    ds^2 = 2 g(z) |dz|^2,      g(z) = d^2 log K / dz dz-bar = 2/(1-|z|^2)^2,

so ds = 2|dz|/(1-|z|^2).  Under this convention the geodesic distance is

    rho(z, w) = 2 artanh | (z-w)/(1 - conj(z) w) |

and rho is 1-Lipschitz with respect to omega (|d rho| = 1 along geodesics),
which is the normalization every displacement, radius and density value in
the rest of the library relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryPoint, NonUnitary

# Points with |z| >= 1 - BOUNDARY_GUARD are rejected; all orbit and
# quadrature constructions live in compact subsets of the disc.
BOUNDARY_GUARD = 1e-12

# Tolerance on |alpha|^2 - |beta|^2 - 1 for SU(1,1) pairs.
UNITARY_TOL = 1e-8


def check_disc_point(z):
    """Validate that z (scalar or array) lies strictly inside the disc: the
    entry check of each public function that takes points."""
    z = np.asarray(z, dtype=complex)
    limit = 1.0 - BOUNDARY_GUARD
    bad = z[~(np.abs(z) < limit)]   # so that NaN fails too
    if bad.size:
        raise BoundaryPoint(f"point {complex(bad[0])} is not inside "
                            f"|z| < {limit}")
    return z[()] if z.ndim == 0 else z


def poincare_to_klein(z):
    return 2.0 * z / (1.0 + np.abs(z) ** 2)


def klein_to_poincare(k):
    return k / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - np.abs(k) ** 2)))


def klein_sides(vertices):
    """Sides (n, c) of a convex geodesic polygon, its vertices CCW.

    Sides are chords in the Klein model, so each is a half-plane
    Re(conj(n) k) <= c with unit outward normal n.
    """
    k = poincare_to_klein(np.asarray(vertices, dtype=complex))
    edge = np.roll(k, -1) - k
    # a vanishing side (a repeated vertex) has no direction and bounds nothing
    keep = np.abs(edge) > 1e-12
    n = -1j * edge[keep] / np.abs(edge[keep])
    return n, (np.conj(n) * k[keep]).real


def in_convex_polygon(vertices, z, slack):
    """Membership of z (scalar or array) in a convex geodesic polygon.

    vertices are the polygon's Poincare vertices, CCW, and its sides the
    half-planes of klein_sides; slack > 0 admits a band of that Klein
    width around the boundary, slack < 0 shrinks the polygon.  Points with
    |z| >= 1, which map back into the Klein disc, are outside.
    """
    n, c = klein_sides(vertices)
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    inside = np.empty(za.shape, dtype=bool)
    # 2^15 point-side tests per block: 0.5 MB temporaries; 2^16 added 1-2 MB
    # to small commands' peak RSS, 2^14 ran a 1,024-gon grid a third slower
    step = max(1, 2 ** 15 // max(1, len(n)))
    for s in range(0, len(za), step):
        zb = za[s:s + step]
        f = side_values(n[:, None], c[:, None], poincare_to_klein(zb))
        inside[s:s + step] = np.all(f <= slack, axis=0) & (np.abs(zb) < 1.0)
    return inside if np.ndim(z) else bool(inside[0])


def side_values(n, c, k):
    """Re(conj(n) k) - c: <= 0 where Klein point k is inside side (n, c)."""
    return (np.conj(n) * k).real - c


def _clip_polygon(poly, n, c):
    """Sutherland-Hodgman clip of polygon (complex vertices, CCW) against
    the half-plane Re(conj(n) z) <= c."""
    out = []
    for a, b in zip(poly, poly[1:] + poly[:1]):
        fa, fb = side_values(n, c, a), side_values(n, c, b)
        if fa <= 0:
            out.append(a)
            if fb > 0:
                out.append(a + (b - a) * fa / (fa - fb))
        elif fb <= 0:
            out.append(a + (b - a) * fa / (fa - fb))
    return out


def dirichlet_polygon(pts):
    """The polygon the bisectors of 0 and the points pts (none 0) cut: its
    CCW Poincare vertices from the least angle, or None when it is not
    bounded inside |z| < 1 - BOUNDARY_GUARD.  The bisector of 0 and p is
    the Klein chord Re(conj(n) k) = |p|, n = p/|p| (Beardon 1983, ch. 7):
    each cut clips a square around the Klein disc, which keeps it CCW, and
    cuts that move no vertex past 1e-15 are skipped."""
    poly = [complex(-2, -2), complex(2, -2), complex(2, 2), complex(-2, 2)]
    normal, dist, k = pts / np.abs(pts), np.abs(pts), 0
    while True:
        f = side_values(normal[k:, None], dist[k:, None], np.array(poly))
        cuts = np.flatnonzero(np.max(f, axis=1) > 1e-15)
        if not len(cuts):
            break
        p, k = pts[k + cuts[0]], k + cuts[0] + 1
        poly = _clip_polygon(poly, p / abs(p), abs(p))
    start = int(np.argmin(np.angle(poly)))
    v = klein_to_poincare(np.array(poly[start:] + poly[:start]))
    return v if np.all(np.abs(v) < 1.0 - BOUNDARY_GUARD) else None


def disc_points(rng, n, r_max):
    """n points uniform (by area) in |z| < r_max: radii drawn, then angles."""
    return r_max * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def check_su11(alpha, beta, tol=UNITARY_TOL):
    """Validate the SU(1,1) normalization of a matrix pair."""
    defect = abs(alpha) ** 2 - abs(beta) ** 2 - 1.0
    if not np.all(np.abs(defect) <= tol):
        raise NonUnitary(f"|alpha|^2 - |beta|^2 - 1 = {defect}")


def mobius_den(alpha, beta, z):
    """den = conj(beta) z + conj(alpha): the automorphism maps z to
    (alpha z + beta)/den, with derivative den^-2.  Broadcasts like mobius."""
    return np.conj(beta) * z + np.conj(alpha)


def mobius(alpha, beta, z):
    """Apply the disc automorphism z -> (alpha z + beta)/(conj(beta) z + conj(alpha)).

    No validation.  Broadcasts over numpy arrays in any argument.
    """
    return (alpha * z + beta) / mobius_den(alpha, beta, z)


def mobius_jacobian(alpha, beta, z):
    """Complex Jacobian (derivative) of the automorphism at z."""
    return den_power(mobius_den(alpha, beta, z), 2)


def den_power(den, n, out=None):
    """den^-n for an integer n >= 1, in out when given (out must not be den).

    den^n by binary squaring, then one reciprocal: the power first and the
    reciprocal last, as NumPy's den ** -n does for n < 100, so accuracy and
    overflow are alike, but by whole-array multiplies, not a scalar
    npy_cpow (or pow, for real den) per element.  The bits are the array
    multiply's, which rounds unlike npy_cpow and unlike scalar products; no
    element's bits depend on its position or the array's shape.
    """
    if n < 1:
        raise ValueError(f"den_power needs n >= 1, got {n}")
    if out is None and np.ndim(den):
        out = np.empty(np.shape(den), np.result_type(den, 1.0))
    p = den
    for bit in bin(n)[3:]:
        p = np.multiply(p, p, out=out)
        if bit == "1":
            p = np.multiply(p, den, out=out)
    return np.divide(1.0, p, out=out)


def bergman_metric(z):
    """Metric g(z) = 2/(1-|z|^2)^2 (ds^2 = 2 g |dz|^2); no validation."""
    return 2.0 / (1.0 - np.abs(z) ** 2) ** 2


def disc_ratio(z, w):
    """t = |(z - w)/(1 - conj(z) w)| = tanh(rho(z, w)/2); no validation."""
    return np.abs((z - w) / (1.0 - np.conj(z) * w))


def ratio_distance(t):
    """rho = 2 artanh t = log((1+t)/(1-t)) from t = disc_ratio(z, w) < 1."""
    return np.log1p(t) - np.log1p(-t)


def distance(z, w):
    """rho(z, w) = 2 artanh |(z - w)/(1 - conj(z) w)|; no validation."""
    return ratio_distance(disc_ratio(z, w))


def rho_error(reach):
    """2^-40 e^reach, a bound on the rounding error of a computed rho(a, b)
    with rho(0, a) + rho(a, b) <= reach: 2 artanh t is off by about
    |dt| (1 + cosh rho(a, b)), |dt| a few ulps over |1 - conj(a) b| >=
    e^-rho(0, a), and 2^-40 is 4096 ulps."""
    return 2.0 ** -40 * np.exp(reach)
