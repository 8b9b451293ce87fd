"""Dirichlet fundamental domain: geometry, quadrature and the tiling test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discforms.domain import dirichlet_domain, disc_domain
from discforms.geometry import (
    distance, in_convex_polygon, klein_to_poincare, poincare_to_klein,
)
from discforms.group import enumerate_ball

from conftest import random_disc_points

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


def test_cut_polygon_is_the_closed_form_octagon(octagon, domain):
    # the preset's D_0, vertices at 2^(-1/4) e^(i(2k+1)pi/8), up to where
    # the list starts
    verts = np.array(octagon.domain_vertices)
    start = int(np.argmin(np.abs(domain.vertices - verts[0])))
    assert np.max(np.abs(np.roll(domain.vertices, -start) - verts)) < 1e-14


def test_contains_center_and_boundary(domain):
    assert domain.contains(0.0j)
    assert not domain.contains(0.99)
    assert not domain.contains(1.2 + 0j)     # outside the disc entirely


def test_polygon_slack_is_a_klein_width(octagon):
    # points s/2 outside each side's midpoint, along the Klein normal (the
    # radius, by symmetry), and s/2 inside it
    verts = np.array(octagon.domain_vertices)
    k = poincare_to_klein(verts)
    s = 1e-3
    for mid in 0.5 * (k + np.roll(k, -1)):
        out, inner = (klein_to_poincare(mid + t * mid / abs(mid))
                      for t in (s / 2, -s / 2))
        assert not in_convex_polygon(verts, out, 0.0)
        assert in_convex_polygon(verts, out, s)
        assert in_convex_polygon(verts, inner, 0.0)
        assert not in_convex_polygon(verts, inner, -s)


def test_polygon_ignores_a_repeated_vertex(octagon, rng):
    # clipping through a vertex repeats it; the empty side bounds nothing
    verts = np.array(octagon.domain_vertices)
    zs = random_disc_points(rng, 500, r_max=0.95)
    assert np.array_equal(in_convex_polygon(np.insert(verts, 3, verts[3]),
                                            zs, 0.0),
                          in_convex_polygon(verts, zs, 0.0))


def test_quadrature_mass_matches_area(domain):
    area = domain.euclidean_area
    mass = float(domain.weights.sum())
    assert np.all(domain.weights > 0)
    assert abs(mass - area) / area < 1e-3


def test_tiling(octagon, domain, rng):
    # every z with rho(0,z) < 2 is moved into F by exactly one gamma
    ball = enumerate_ball(octagon, 0.0j, 2.0 + 2.0 * VERTEX_DIST + 0.5)
    zs = random_disc_points(rng, 200, r_max=math.tanh(1.0))
    for z in zs:
        orbit = (ball.alphas * z + ball.betas) \
            / (np.conj(ball.betas) * z + np.conj(ball.alphas))
        hits = int(np.sum(domain.contains(orbit)))
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
