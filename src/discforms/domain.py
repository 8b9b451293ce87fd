"""Dirichlet fundamental domains and quadrature grids.

The Dirichlet domain about 0, D_0, is the intersection of the half-spaces
{z : rho(z, 0) <= rho(z, gamma 0)} over gamma != id: the polygon of the
group's certificate (FuchsianGroup.dirichlet_at_0), or else a cut over an
orbit ball (dirichlet_vertices), each by geometry.dirichlet_polygon.  Sides
of the Poincare polygon are arcs of circles orthogonal to the unit circle.
A domain is its CCW vertex list; geometry.in_convex_polygon, the one
membership test, works in the Klein model, where sides are linear.

Quadrature is a regular Cartesian grid in the Poincare coordinate (the
integrals in this library are Lebesgue integrals in that coordinate):
midpoint weights h^2 for interior cells, subsampled fractional weights for
cells crossing the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (dirichlet_polygon, distance, in_convex_polygon,
                       klein_sides, poincare_to_klein, side_values)
from .group import enumerate_ball

# Bound on the derivative norm of the Klein map z -> 2z/(1+|z|^2)
KLEIN_LIPSCHITZ = 2.0


@dataclass
class FundamentalDomain:
    """Dirichlet polygon, given by its vertices, with a quadrature grid."""

    vertices: np.ndarray          # Poincare coordinates, CCW
    nodes: np.ndarray             # quadrature nodes (Poincare coords)
    weights: np.ndarray           # positive, sum ~ euclidean polygon area

    def __post_init__(self):
        # the group caches its domains, so no caller may write
        for arr in (self.vertices, self.nodes, self.weights):
            arr.flags.writeable = False

    @property
    def euclidean_area(self):
        """Exact Euclidean area of the arc-sided Poincare polygon: the
        shoelace area less a segment R^2 (theta - sin theta)/2 per side
        a -> b, R = L |1 - conj(a) b| / (2 |Im(conj(a) b)|) the radius of
        its geodesic, L = |b - a| and theta = 2 arcsin(L/2R) (0 is inside,
        so no side is a diameter).  The 2n terms are rounded once."""
        from .series import exact_sum     # series imports this module
        a, b = self.vertices, np.roll(self.vertices, -1)
        cross = (np.conj(a) * b).imag
        chord = np.abs(b - a)
        rad = chord * np.abs(1.0 - np.conj(a) * b) / (2.0 * np.abs(cross))
        theta = 2.0 * np.arcsin(chord / (2.0 * rad))
        return float(exact_sum(np.concatenate(
            [cross, -rad ** 2 * (theta - np.sin(theta))])) / 2.0)


def _clipped_grid(verts, h):
    """Cartesian midpoint grid clipped to the polygon with these vertices.

    Cells with all four corners inside get weight h^2; cells meeting the
    boundary are subsampled on a 16 x 16 grid to a fractional weight, at
    the inside subsamples' centroid.  Returns (nodes, weights).  The Klein
    map stretches by 2|1-|z|^2|/(1+|z|^2)^2 radially and 2/(1+|z|^2)
    tangentially, at most KLEIN_LIPSCHITZ = 2, and a subsample lies within
    h/sqrt(2) of its cell's centre: a side value f_i (geometry.side_values)
    moves by at most sqrt(2) h across a cell.  So a side below -band at the
    centre, band = sqrt(2) h (1 + 1e-9) + 1e-12 (margins for rounding),
    passes every subsample; only the other sides are tested there, as
    in_convex_polygon tests them, to the bit.
    """
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

    # classify each lattice corner once; a cell counts its four
    lx, ly = np.meshgrid(xmin + np.arange(nx + 1) * h,
                         ymin + np.arange(ny + 1) * h, indexing="ij")
    inside = in_convex_polygon(verts, (lx + 1j * ly).ravel())
    inside = inside.reshape(nx + 1, ny + 1).astype(np.int64)
    n_in = (inside[:-1, :-1] + inside[1:, :-1] + inside[:-1, 1:]
            + inside[1:, 1:]).ravel()
    full = n_in == 4
    partial = (n_in > 0) & ~full
    # convex domain: a cell with no corner inside can still clip a sliver,
    # but only near a vertex; pick those up via the cell centers too
    empty = np.flatnonzero(n_in == 0)
    partial[empty] = in_convex_polygon(verts, centers[empty])

    nodes = [centers[full]]
    weights = [np.full(np.sum(full), h * h)]
    pidx = np.nonzero(partial)[0]
    u = (np.arange(16) + 0.5) / 16 - 0.5
    sx, sy = np.meshgrid(u, u, indexing="ij")
    offsets = (sx + 1j * sy).ravel() * h
    n, c = klein_sides(verts)
    f = side_values(n[:, None], c[:, None], poincare_to_klein(centers[pidx]))
    band = KLEIN_LIPSCHITZ * h / np.sqrt(2.0) * (1.0 + 1e-9) + 1e-12
    cell, side = np.nonzero(f.T >= -band)    # (cell, side) pairs, by cell
    # blocks of cells with at most 128 pairs: 2^15 subsample tests
    step = max(1, 128 // np.max(np.bincount(cell), initial=1))
    for a in range(0, len(pidx), step):
        sub = centers[pidx[a:a + step], None] + offsets
        ok = np.abs(sub) < 1.0
        lo, hi = np.searchsorted(cell, [a, a + step])
        ci, si = cell[lo:hi] - a, side[lo:hi]
        test = side_values(n[si, None], c[si, None],
                           poincare_to_klein(sub)[ci]) <= 0.0
        # AND each cell's rows, 256 booleans as 32 words
        first = np.flatnonzero(np.diff(ci, prepend=-1))
        ok[ci[first]] &= np.bitwise_and.reduceat(
            test.view(np.uint64), first).view(bool)
        # centroid nodes (a centre can sit outside), each sum from 0 as
        # np.mean's, so with the bits of sub[k][ok[k]].mean()
        count = np.count_nonzero(ok, axis=1)
        count = count[count > 0]
        starts = np.cumsum(count) - count
        nodes.append(np.add.reduceat(np.insert(sub[ok], starts, 0.0),
                                     starts + np.arange(len(count))) / count)
        weights.append(count / 256 * h * h)
    return np.concatenate(nodes), np.concatenate(weights)


def check_spacing(spacing):
    """Reject a grid spacing that is not positive and finite."""
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive and finite, "
                         f"got {spacing!r}")


def dirichlet_domain(group, spacing):
    """Dirichlet fundamental domain about 0 with a quadrature grid.

    The group caches its polygon (dirichlet_vertices) and one grid per
    spacing.  A spacing whose grid holds no node is a ValueError.
    """
    check_spacing(spacing)
    cache = group._domain_cache
    if spacing not in cache:
        if group.is_trivial:
            dom = disc_domain(spacing=spacing)
        else:
            poly = dirichlet_vertices(group)
            dom = FundamentalDomain(poly, *_clipped_grid(poly, spacing))
        if not len(dom.nodes):
            raise ValueError(f"spacing {spacing!r} leaves no grid node in "
                             f"the fundamental domain")
        cache[spacing] = dom
    return cache[spacing]


def dirichlet_vertices(group):
    """The CCW vertices of D_0, the Dirichlet polygon about 0, of a group
    with generators: its certificate's polygon, or else a ball cut, once.

    The ball of radius R = 2 d0 + 1 (d0 the smallest generator displacement)
    cuts a polygon P that holds D_0 and 0.  With m = max rho(0, v) over P's
    vertices, no gamma with rho(0, gamma 0) > 2 m cuts P: z in P has
    rho(z, gamma 0) >= rho(0, gamma 0) - rho(0, z) > rho(0, z).  So P is D_0
    if R >= 2 m.  Else the ball of radius 2 m + 1 cuts a polygon inside P,
    so within m of 0 (rho(0, .) is convex), and that is D_0: no third cut.
    """
    cert = group.dirichlet_at_0
    cache = group._domain_cache     # under a key that no spacing can be
    if not cert and "vertices" not in cache:
        reach = 2.0 * group.min_generator_displacement() + 1.0
        for _ in range(2):
            ball = enumerate_ball(group, 0.0j, reach)
            poly = dirichlet_polygon(
                ball.terms(0.0j)[0][ball.displacements > 1e-12])
            if poly is None:
                raise ConfigError("the Dirichlet polygon about 0 is "
                                  "unbounded, so the group is not cocompact")
            needed = 2.0 * float(np.max(distance(0.0j, poly))) + 1e-9
            if reach >= needed:
                break
            reach = needed + 1.0
        poly.flags.writeable = False
        cache["vertices"] = poly
    return cert[0] if cert else cache["vertices"]


def disc_domain(spacing):
    """Whole disc as a fundamental domain (trivial group).

    A regular geodesic 1024-gon with vertices at radius 1 - 1e-4; the
    omitted boundary ring carries weights (1-|z|^2)^k of every integrand in
    this library, so the truncation error is negligible for the exponents
    in use.
    """
    n_sides, r_max = 1024, 1.0 - 1e-4
    ang = 2.0 * np.pi * (np.arange(n_sides) + 0.5) / n_sides
    verts = r_max * np.exp(1j * ang)
    return FundamentalDomain(verts, *_clipped_grid(verts, spacing))
