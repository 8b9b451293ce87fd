"""Dirichlet fundamental domain: geometry, quadrature and the tiling test."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discforms import domain as domain_module
from discforms.domain import _clipped_grid, dirichlet_domain, disc_domain
from discforms.geometry import (
    distance, in_convex_polygon, klein_to_poincare, poincare_to_klein,
)
from discforms.group import enumerate_ball, load_group

from conftest import OCTAGON_D0, random_disc_points, write_4g_gon

# regular octagon vertex distance: arccosh(cot^2(pi/8))
VERTEX_DIST = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)


@pytest.fixture(scope="module")
def domain(octagon):
    return dirichlet_domain(octagon, spacing=0.01)


def test_klein_chart_roundtrip(rng):
    zs = random_disc_points(rng, 100, r_max=0.95)
    assert np.max(np.abs(klein_to_poincare(poincare_to_klein(zs)) - zs)) \
        < 1e-12


def test_octagon_shape(domain):
    assert len(domain.vertices) == 8
    dists = np.array([distance(0.0j, v) for v in domain.vertices])
    assert np.max(np.abs(dists - VERTEX_DIST)) < 1e-6
    # D8 symmetry: vertices at odd multiples of pi/8
    ang = np.sort(np.angle(np.array(domain.vertices)))
    assert np.max(np.abs(np.diff(ang) - math.pi / 4)) < 1e-9


@settings(deadline=None)
@given(st.floats(1e-6, 0.999), st.floats(-math.pi, math.pi),
       st.floats(-0.999, 0.999))
def test_bisector_is_a_klein_chord(r, theta, s):
    # the chord Re(conj(n) k) = |p|, n = p/|p|, that the polygon is cut
    # with is equidistant from 0 and p
    p = r * complex(math.cos(theta), math.sin(theta))
    n = p / abs(p)
    k = n * complex(abs(p), s * math.sqrt(1.0 - abs(p) ** 2))
    z = klein_to_poincare(k)
    to_0, to_p = float(distance(0.0j, z)), float(distance(p, z))
    assert abs(to_0 - to_p) <= 1e-12 * to_0


def test_cut_polygon_is_the_closed_form_octagon(domain):
    # the preset's D_0, vertices at 2^(-1/4) e^(i(2k+1)pi/8), up to where
    # the list starts
    verts = OCTAGON_D0
    start = int(np.argmin(np.abs(domain.vertices - verts[0])))
    assert np.max(np.abs(np.roll(domain.vertices, -start) - verts)) < 1e-14


def test_contains_center_and_boundary(domain):
    # a domain's membership test is in_convex_polygon on its vertices
    verts = domain.vertices
    assert in_convex_polygon(verts, 0.0j)
    assert not in_convex_polygon(verts, 0.99)
    assert not in_convex_polygon(verts, 1.2 + 0j)   # outside the disc


def test_polygon_ignores_a_repeated_vertex(rng):
    # clipping through a vertex repeats it; the empty side bounds nothing
    verts = OCTAGON_D0
    zs = random_disc_points(rng, 500, r_max=0.95)
    assert np.array_equal(in_convex_polygon(np.insert(verts, 3, verts[3]),
                                            zs),
                          in_convex_polygon(verts, zs))


def test_quadrature_mass_matches_area(domain):
    area = domain.euclidean_area
    mass = float(domain.weights.sum())
    assert np.all(domain.weights > 0)
    assert abs(mass - area) / area < 1e-3


def _arc_area_60(vertices):
    """Green's-theorem area of a geodesic polygon at 60 digits, each side an
    arc of the circle |z|^2 - 2 Re(conj(c) z) + 1 = 0 through its ends:
    1/2 Int Im(conj(z) dz) is (|c|^2 - 1) dphi + Im(conj(c) (b - a)) over
    two, dphi the arc's turn about c."""
    with mpmath.workdps(60):
        vs = [mpmath.mpc(complex(v)) for v in vertices]
        area = mpmath.mpf(0)
        for a, b in zip(vs, vs[1:] + vs[:1]):
            det = (mpmath.conj(a) * b).imag
            wa, wb = (1 + abs(a) ** 2) / 2, (1 + abs(b) ** 2) / 2
            c = mpmath.mpc((wa * b.imag - wb * a.imag) / det,
                           (wb * a.real - wa * b.real) / det)
            area += ((abs(c) ** 2 - 1) * mpmath.arg((b - c) / (a - c))
                     + (mpmath.conj(c) * (b - a)).imag) / 2
        return area


@pytest.mark.parametrize("which", ["octagon", "12-gon", "1024-gon"])
def test_area_against_60_digits(domain, which, tmp_path):
    # the closed-form area, its 2n terms rounded once, is off the 60-digit
    # area of the same vertices by under one unit of 2^-52 relative: 0.007
    # on the octagon (whose area keeps its bits), 0.261 on the genus-3
    # file's 12-gon, where two np.sums read 1.71, and 0.260 on the
    # 1,024-gon, where the per-side Green's-theorem sum in double precision
    # was off by 51,015 units (1.1e-11 relative)
    if which == "12-gon":
        group = load_group(str(write_4g_gon(tmp_path / "genus3.cfg", 3)))
        dom = dirichlet_domain(group, spacing=0.05)
    else:
        dom = domain if which == "octagon" else disc_domain(0.05)
    exact = _arc_area_60(dom.vertices)
    with mpmath.workdps(60):
        ratio = float(abs(mpmath.mpf(dom.euclidean_area) - exact) / exact
                      / mpmath.mpf(2) ** -52)
    assert ratio < 1.0
    if which == "octagon":
        assert dom.euclidean_area == 1.5271368401776182


def test_tiling(octagon, domain, rng):
    # every z with rho(0,z) < 2 is moved into F by exactly one gamma
    ball = enumerate_ball(octagon, 0.0j, 2.0 + 2.0 * VERTEX_DIST + 0.5)
    zs = random_disc_points(rng, 200, r_max=math.tanh(1.0))
    for z in zs:
        orbit = (ball.alphas * z + ball.betas) \
            / (np.conj(ball.betas) * z + np.conj(ball.alphas))
        hits = int(np.sum(in_convex_polygon(domain.vertices, orbit)))
        assert hits == 1


def test_domain_cached_read_only(octagon, trivial):
    # one domain per group and spacing, shared, so no caller may write it
    for g in (octagon, trivial):
        dom = dirichlet_domain(g, spacing=0.05)
        assert dirichlet_domain(g, spacing=0.05) is dom
        assert dirichlet_domain(g, spacing=0.04) is not dom
        for arr in (dom.vertices, dom.nodes, dom.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_disc_domain_mass():
    dom = disc_domain(spacing=0.02)
    # 1024-gon inscribed at r ~ 1: mass just under pi
    assert abs(float(dom.weights.sum()) - math.pi) < 0.02
    assert abs(float(dom.weights.sum()) - dom.euclidean_area) \
        / dom.euclidean_area < 1e-3


def test_disc_domain_memory():
    # the 1024-gon classifies its grid in blocks; side-by-point matrices
    # over all of it peaked at about 260 MB at this spacing
    tracemalloc.start()
    try:
        disc_domain(spacing=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def _reference_grid(verts, h):
    """The clipped grid by brute force: every subsample of every boundary
    cell is tested with in_convex_polygon, and each node is the mean of
    its cell's inside subsamples, one cell at a time."""
    xmin = min(v.real for v in verts) - h
    ymin = min(v.imag for v in verts) - h
    nx = int(np.ceil((max(v.real for v in verts) + h - xmin) / h))
    ny = int(np.ceil((max(v.imag for v in verts) + h - ymin) / h))
    cx, cy = np.meshgrid(xmin + (np.arange(nx) + 0.5) * h,
                         ymin + (np.arange(ny) + 0.5) * h, indexing="ij")
    centers = (cx + 1j * cy).ravel()
    lx, ly = np.meshgrid(xmin + np.arange(nx + 1) * h,
                         ymin + np.arange(ny + 1) * h, indexing="ij")
    inside = in_convex_polygon(verts, (lx + 1j * ly).ravel())
    inside = inside.reshape(nx + 1, ny + 1).astype(np.int64)
    n_in = (inside[:-1, :-1] + inside[1:, :-1] + inside[:-1, 1:]
            + inside[1:, 1:]).ravel()
    full = n_in == 4
    partial = ((n_in > 0) & ~full
               | (n_in == 0) & in_convex_polygon(verts, centers))
    u = (np.arange(16) + 0.5) / 16 - 0.5
    sx, sy = np.meshgrid(u, u, indexing="ij")
    sub = centers[partial][:, None] + ((sx + 1j * sy).ravel() * h)[None, :]
    sub_in = in_convex_polygon(verts, sub.ravel()).reshape(sub.shape)
    frac = sub_in.mean(axis=1)
    keep = frac > 0
    cent = [row[ok].mean() for row, ok in zip(sub[keep], sub_in[keep])]
    return (np.concatenate([centers[full], cent]),
            np.concatenate([np.full(np.sum(full), h * h),
                            frac[keep] * h * h]))


_D0 = OCTAGON_D0
# a small triangle about 0, where the Klein map stretches by nearly 2: the
# octagon and the 1,024-gon stretch less, and pass with half the band too
_SMALL = 0.1 * np.exp(1j * (2 * np.pi * np.arange(3) / 3 + 0.1))
_GRID_CASES = {
    **{f"octagon-{h}": (_D0, h) for h in (0.01, 0.0125, 0.02, 0.05)},
    "1024-gon-0.05": (disc_domain(0.05).vertices, 0.05),
    "octagon-rotated-0.0125": (_D0 * np.exp(0.01j), 0.0125),
    "small-triangle-0.02": (_SMALL, 0.02),
}


@pytest.mark.parametrize("name", sorted(_GRID_CASES))
def test_clipped_grid_matches_brute_force(name):
    # subsamples are tested only against the sides within the derived band
    # of their cell's centre, and the centroids are summed in one pass:
    # weights and nodes are the brute-force ones to the bit
    verts, h = _GRID_CASES[name]
    nodes, weights = _clipped_grid(verts, h)
    ref_nodes, ref_weights = _reference_grid(verts, h)
    assert np.array_equal(weights, ref_weights)
    assert np.array_equal(nodes, ref_nodes)


def test_half_the_grid_band_changes_a_weight(monkeypatch):
    # half the derived band misclassifies some subsample
    monkeypatch.setattr(domain_module, "KLEIN_LIPSCHITZ", 1.0)
    verts, h = _GRID_CASES["small-triangle-0.02"]
    _, weights = _clipped_grid(verts, h)
    _, ref_weights = _reference_grid(verts, h)
    assert not (len(weights) == len(ref_weights)
                and np.array_equal(weights, ref_weights))
