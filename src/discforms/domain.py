"""Dirichlet fundamental domains and quadrature grids.

The Dirichlet domain about x is the intersection of the half-spaces
{z : rho(z, x) <= rho(z, gamma x)} over the non-identity elements of an
orbit ball.  Each bounding bisector is a geodesic; in the Klein model
geodesics are straight chords, so the polygon is cut there with ordinary
convex half-plane clipping and mapped back to the Poincare disc.  Sides of
the resulting Poincare polygon are arcs of circles orthogonal to the unit
circle; containment tests always go through the Klein model, where they
are linear.

Quadrature is a regular Cartesian grid in the Poincare coordinate (the
integrals in this library are Lebesgue integrals in that coordinate):
midpoint weights h^2 for interior cells, subsampled fractional weights for
cells crossing the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBall
from .geometry import distance
from .group import enumerate_ball


def poincare_to_klein(z):
    return 2.0 * z / (1.0 + np.abs(z) ** 2)


def klein_to_poincare(k):
    return k / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - np.abs(k) ** 2)))


def _bisector_endpoints(x, p):
    """Ideal endpoints of the geodesic bisector of x and p (both interior).

    Works in the chart centered at x: there the bisector is the geodesic
    through the hyperbolic midpoint of [0, q], perpendicular to the radius.
    """
    q = (p - x) / (1.0 - np.conj(x) * p)
    aq = abs(q)
    theta = np.angle(q)
    # midpoint of [0, q] at euclidean radius tanh(artanh(aq)/2)
    rm = np.tanh(0.5 * np.arctanh(aq))
    # geodesic through rm*e^{i theta} orthogonal to the radius has ideal
    # endpoints e^{i(theta +- phi)} with (1 - sin phi)/cos phi = rm
    phi = 0.5 * np.pi - 2.0 * np.arctan(rm)
    e1 = np.exp(1j * (theta + phi))
    e2 = np.exp(1j * (theta - phi))
    # undo the chart: w -> (w + x)/(1 + conj(x) w) maps the circle to itself
    return ((e1 + x) / (1.0 + np.conj(x) * e1),
            (e2 + x) / (1.0 + np.conj(x) * e2))


def _clip_polygon(poly, n, c):
    """Sutherland-Hodgman clip of polygon (complex vertices, CCW) against
    the half-plane Re(conj(n) z) <= c."""
    out = []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        fa = (np.conj(n) * a).real - c
        fb = (np.conj(n) * b).real - c
        if fa <= 0:
            out.append(a)
            if fb > 0:
                out.append(a + (b - a) * fa / (fa - fb))
        elif fb <= 0:
            out.append(a + (b - a) * fa / (fa - fb))
    return out


@dataclass
class FundamentalDomain:
    """Dirichlet polygon with a Lebesgue quadrature grid.

    vertices are in the Poincare model (sides are geodesic arcs); the
    half-plane description (normals, offsets) lives in the Klein model and
    is what containment tests use.
    """

    center: complex
    vertices: np.ndarray          # Poincare coordinates, CCW
    klein_normals: np.ndarray     # unit complex normals, one per side
    klein_offsets: np.ndarray
    nodes: np.ndarray             # quadrature nodes (Poincare coords)
    weights: np.ndarray           # positive, sum ~ euclidean polygon area
    spacing: float

    def contains(self, z, slack=0.0):
        """Vectorized membership test (Klein half-plane form).

        slack > 0 admits a band around the boundary, slack < 0 shrinks the
        domain; measured in the Klein coordinate.
        """
        za = np.atleast_1d(np.asarray(z, dtype=complex))
        k = poincare_to_klein(za)
        f = (np.conj(self.klein_normals)[:, None]
             * k[None, :]).real - self.klein_offsets[:, None]
        # |z| >= 1 maps back into the Klein disc; reject it explicitly
        inside = np.all(f <= slack, axis=0) & (np.abs(za) < 1.0)
        return inside if np.ndim(z) else bool(inside[0])

    @property
    def euclidean_area(self):
        """Exact Euclidean area of the arc-sided Poincare polygon."""
        return _arc_polygon_area(self.vertices)


def _arc_side_params(a, b):
    """Circle (center, radius, phi_a, phi_b) of the geodesic arc a -> b.

    Returns None for (numerically) diametral sides, which are straight.
    """
    # circle orthogonal to the unit circle through a and b:
    # |z|^2 - 2 Re(conj(c) z) + 1 = 0 for both endpoints
    det = (np.conj(a) * b).imag
    if abs(det) < 1e-13:
        return None
    wa = (1.0 + abs(a) ** 2) / 2.0
    wb = (1.0 + abs(b) ** 2) / 2.0
    # solve Re(conj(c) a) = wa, Re(conj(c) b) = wb
    cx = (wa * b.imag - wb * a.imag) / det
    cy = (wb * a.real - wa * b.real) / det
    c = complex(cx, cy)
    rad = np.sqrt(abs(c) ** 2 - 1.0)
    return c, rad, np.angle(a - c), np.angle(b - c)


def _arc_polygon_area(vertices):
    """Green's-theorem area of a polygon whose sides are geodesic arcs."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        params = _arc_side_params(a, b)
        if params is None:
            area += 0.5 * (np.conj(a) * b).imag
            continue
        c, rad, pa, pb = params
        dphi = np.angle(np.exp(1j * (pb - pa)))  # short way around
        # 1/2 Int Im(conj(p) dp) over the arc p = c + rad e^{i phi}
        seg = 0.5 * (rad * rad * dphi
                     + rad * (np.conj(c)
                              * (np.exp(1j * pb) - np.exp(1j * pa))).imag)
        area += seg
    return float(area)


def _clipped_grid(domain, h):
    """Cartesian midpoint grid clipped to the domain.

    Cells with all four corners inside get weight h^2; cells meeting the
    boundary are subsampled on a 16 x 16 grid to a fractional weight.
    """
    verts = domain.vertices
    xmin = min(v.real for v in verts) - h
    xmax = max(v.real for v in verts) + h
    ymin = min(v.imag for v in verts) - h
    ymax = max(v.imag for v in verts) + h
    nx = int(np.ceil((xmax - xmin) / h))
    ny = int(np.ceil((ymax - ymin) / h))
    xs = xmin + (np.arange(nx) + 0.5) * h
    ys = ymin + (np.arange(ny) + 0.5) * h
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    centers = (cx + 1j * cy).ravel()

    half = 0.5 * h
    corners = np.stack([centers + (-half - 1j * half),
                        centers + (half - 1j * half),
                        centers + (half + 1j * half),
                        centers + (-half + 1j * half)])
    inside = np.stack([domain.contains(c) for c in corners])
    n_in = inside.sum(axis=0)
    full = n_in == 4
    partial = (n_in > 0) & ~full
    # convex domain: a cell with no corner inside can still clip a sliver,
    # but only near a vertex; pick those up via the cell centers too
    partial |= (n_in == 0) & domain.contains(centers)

    nodes = [centers[full]]
    weights = [np.full(np.sum(full), h * h)]
    pidx = np.nonzero(partial)[0]
    if len(pidx):
        u = (np.arange(16) + 0.5) / 16 - 0.5
        sx, sy = np.meshgrid(u, u, indexing="ij")
        offsets = (sx + 1j * sy).ravel() * h
        sub = centers[pidx][:, None] + offsets[None, :]
        sub_in = np.stack([domain.contains(row) for row in sub])
        frac = sub_in.mean(axis=1)
        keep = frac > 0
        # cell centers of boundary cells can sit outside the domain; use
        # the centroid of the inside subsamples as the node instead
        cent = np.array([row[ok].mean() for row, ok in
                         zip(sub[keep], sub_in[keep])])
        nodes.append(cent)
        weights.append(frac[keep] * h * h)
    return np.concatenate(nodes), np.concatenate(weights)


def dirichlet_domain(group, x=0.0j, spacing=0.004):
    """Dirichlet fundamental domain about x with a quadrature grid.

    Cuts half-spaces over an orbit ball of radius 2*d0 + 1 (d0 = the
    smallest generator displacement) and retries twice with a larger ball
    if the polygon could still be cut by farther orbit points.
    """
    if group.is_trivial:
        return disc_domain(spacing=spacing)
    x = complex(x)
    d0 = group.min_generator_displacement(x)
    reach = 2.0 * d0 + 1.0
    for _ in range(3):
        ball = enumerate_ball(group, x, reach)
        poly, normals, offsets = _cut_polygon(x, ball)
        vr = np.array([float(distance(x, v)) for v in poly])
        # any gamma with rho(x, gamma x) > 2 * max vertex distance cannot
        # cut the polygon; if the ball does not reach that far, retry
        needed = 2.0 * float(np.max(vr)) + 1e-9
        if reach >= needed:
            dom = FundamentalDomain(x, poly, normals, offsets,
                                    np.empty(0, complex), np.empty(0), spacing)
            nodes, weights = _clipped_grid(dom, spacing)
            dom.nodes = nodes
            dom.weights = weights
            return dom
        reach = needed + 1.0
    raise InsufficientBall("Dirichlet polygon kept growing past the "
                           "enumerated orbit ball")


def _cut_polygon(x, ball):
    pts = ball.orbit_points()
    keep = ball.displacements > 1e-12
    pts = pts[keep]
    order = np.argsort(ball.displacements[keep], kind="stable")
    xk = poincare_to_klein(x)
    # start from a big square around the Klein disc
    poly = [complex(-2, -2), complex(2, -2), complex(2, 2), complex(-2, 2)]
    normals, offsets = [], []
    for p in pts[order]:
        e1, e2 = _bisector_endpoints(x, complex(p))
        # chord e1 -> e2 in the Klein model; normal points away from x
        n = 1j * (e2 - e1)
        c = (np.conj(n) * e1).real
        if (np.conj(n) * xk).real - c > 0:
            n, c = -n, -c
        # skip redundant cuts (polygon already inside the half-plane)
        vals = [(np.conj(n) * v).real - c for v in poly]
        if max(vals) <= 1e-15:
            continue
        poly = _clip_polygon(poly, n, c)
        s = abs(n)
        normals.append(n / s)
        offsets.append(c / s)
    poly = _ccw(poly, xk)
    return (klein_to_poincare(np.array(poly)),
            np.array(normals), np.array(offsets))


def _ccw(poly, interior):
    poly = list(poly)
    area = sum((np.conj(a) * b).imag
               for a, b in zip(poly, poly[1:] + poly[:1]))
    if area < 0:
        poly = poly[::-1]
    # rotate so the vertex with the smallest angle about the center is first
    ang = [np.angle(v - interior) for v in poly]
    start = int(np.argmin(ang))
    return poly[start:] + poly[:start]


def disc_domain(spacing=0.004):
    """Whole disc as a fundamental domain (trivial group).

    A regular geodesic 1024-gon with vertices at radius 1 - 1e-4; the
    omitted boundary ring carries weights (1-|z|^2)^k of every integrand in
    this library, so the truncation error is negligible for the exponents
    in use.
    """
    n_sides, r_max = 1024, 1.0 - 1e-4
    ang = 2.0 * np.pi * (np.arange(n_sides) + 0.5) / n_sides
    verts = r_max * np.exp(1j * ang)
    rk = float(poincare_to_klein(r_max + 0j).real)
    normals = np.exp(1j * 2.0 * np.pi * (np.arange(n_sides) + 1.0) / n_sides)
    offsets = np.full(n_sides, rk * np.cos(np.pi / n_sides))
    dom = FundamentalDomain(0.0j, verts, normals, offsets,
                            np.empty(0, complex), np.empty(0), spacing)
    nodes, weights = _clipped_grid(dom, spacing)
    dom.nodes = nodes
    dom.weights = weights
    return dom
