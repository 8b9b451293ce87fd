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
    """Validate that z (scalar or array) lies strictly inside the disc."""
    z = np.asarray(z, dtype=complex)
    limit = 1.0 - BOUNDARY_GUARD
    if np.any(np.abs(z) >= limit):
        raise BoundaryPoint(f"point with |z| >= {limit} rejected")
    return z[()] if z.ndim == 0 else z


def disc_points(rng, n, r_max):
    """n points uniform (by area) in |z| < r_max: radii drawn, then angles."""
    return r_max * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def check_su11(alpha, beta, tol=UNITARY_TOL):
    """Validate the SU(1,1) normalization of a matrix pair."""
    defect = abs(alpha) ** 2 - abs(beta) ** 2 - 1.0
    if not np.all(np.abs(defect) <= tol):
        raise NonUnitary(f"|alpha|^2 - |beta|^2 - 1 = {defect}")


def mobius(alpha, beta, z):
    """Apply the disc automorphism z -> (alpha z + beta)/(conj(beta) z + conj(alpha)).

    No validation; use mobius_apply for the checked scalar entry point.
    Broadcasts over numpy arrays in any argument.
    """
    return (alpha * z + beta) / (np.conj(beta) * z + np.conj(alpha))


def mobius_jacobian(alpha, beta, z):
    """Complex Jacobian (derivative) of the automorphism at z."""
    den = np.conj(beta) * z + np.conj(alpha)
    return 1.0 / (den * den)


def mobius_apply(g, z):
    """Checked action of a group element on a disc point."""
    check_su11(g.alpha, g.beta)
    z = check_disc_point(z)
    return mobius(g.alpha, g.beta, z)


def jacobian(g, z):
    """Checked automorphy factor j_g(z) = g'(z)."""
    check_su11(g.alpha, g.beta)
    z = check_disc_point(z)
    return mobius_jacobian(g.alpha, g.beta, z)


def bergman_kernel(z, w):
    """Bergman kernel of the disc, K(z, w) = 1/(pi (1 - z conj(w))^2)."""
    z = check_disc_point(z)
    w = check_disc_point(w)
    d = 1.0 - z * np.conj(w)
    return 1.0 / (np.pi * d * d)


def bergman_metric(z):
    """Metric density g(z) = 2/(1-|z|^2)^2, so that ds^2 = 2 g |dz|^2."""
    z = check_disc_point(z)
    r2 = np.abs(z) ** 2
    return 2.0 / (1.0 - r2) ** 2


def distance(z, w):
    """Geodesic distance rho(z, w) = 2 artanh |(z - w)/(1 - conj(z) w)|."""
    z = check_disc_point(z)
    w = check_disc_point(w)
    t = np.abs((z - w) / (1.0 - np.conj(z) * w))
    # 2 artanh t = log((1+t)/(1-t)); t < 1 strictly for interior points.
    return np.log1p(t) - np.log1p(-t)


def dbar_log_kernel_norm_sq(z):
    """|d-bar log K|^2_omega at z; equals 2|z|^2 on the disc."""
    z = check_disc_point(z)
    # d(log K)/d z-bar = 2 z / (1 - |z|^2); divide |.|^2 by g.
    r2 = np.abs(z) ** 2
    num = 4.0 * r2 / (1.0 - r2) ** 2
    return num / bergman_metric(z)


def df_constant():
    """Donnelly-Fefferman constant C(disc) = sup |d-bar log K|^2_omega.

    Returns (grid_sup, analytic_sup).  The supremum 2|z|^2 -> 2 is not
    attained, so the grid value approaches 2 from below.  The analytic value
    saturates the Siegel-domain bound p + 2q = 2 for (p, q) = (0, 1).
    """
    r = np.linspace(0.0, 1.0 - 1e-8, 4096)
    grid_sup = float(np.max(dbar_log_kernel_norm_sq(r)))
    analytic = 2.0
    assert analytic <= 2.0 + 1e-15  # Siegel-domain bound p + 2q with (0, 1)
    return grid_sup, analytic
