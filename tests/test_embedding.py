"""Section bases and the jet/point separation certificates."""

import numpy as np
import pytest

from discforms.embedding import (
    eval_sections, jet_separation_test, point_separation_test,
    sample_fundamental_domain, very_ampleness_scan,
)
from discforms.errors import EquivalentPoints
from discforms.geometry import in_convex_polygon

from conftest import random_disc_points


def test_trivial_basis_is_monomials(trivial):
    pts = np.array([0.2 + 0.1j, -0.3j])
    vals, ders = eval_sections(trivial, 4, 3, pts, 2.0)
    expect = np.array([pts ** k for k in range(4)])
    assert np.max(np.abs(vals - expect)) < 1e-15
    dexpect = np.array([k * pts ** max(k - 1, 0) * (k > 0)
                        for k in range(4)])
    assert np.max(np.abs(ders - dexpect)) < 1e-14


def test_derivative_matches_finite_differences(octagon):
    pts = np.array([0.1 + 0.1j, -0.2 + 0.05j, 0.3j])
    _, ders = eval_sections(octagon, 4, 6, pts, 8.0)
    h = 1e-5
    vp, _ = eval_sections(octagon, 4, 6, pts + h, 8.0)
    vm, _ = eval_sections(octagon, 4, 6, pts - h, 8.0)
    fd = (vp - vm) / (2.0 * h)
    assert np.max(np.abs(fd - ders)) < 1e-6


def test_gram_rank_bounded(octagon):
    pts = random_disc_points(np.random.default_rng(0), 40, r_max=0.4)
    vals, _ = eval_sections(octagon, 4, 6, pts, 8.0)
    gram = vals @ vals.conj().T
    assert np.linalg.matrix_rank(gram, tol=1e-10) <= 7


def test_jet_trivial(trivial):
    res = jet_separation_test(trivial, 4, 2, 2.0, 0.2 + 0.1j)
    assert res.passed


def test_jet_rank_invariant_under_group(octagon):
    x = 0.15 + 0.1j
    r1 = jet_separation_test(octagon, 4, 6, 8.0, x)
    for g in octagon.generators[:3]:
        r2 = jet_separation_test(octagon, 4, 6, 8.0, g.apply(x))
        assert r1.passed == r2.passed


def test_point_separation(trivial, octagon):
    assert point_separation_test(trivial, 4, 3, 2.0, 0.1, 0.2).passed
    g = octagon.generators[0]
    x = 0.2 + 0.05j
    with pytest.raises(EquivalentPoints):
        point_separation_test(octagon, 4, 6, 8.0, x, g.apply(x))
    # equivalent points have proportional value columns (automorphy)
    vals, _ = eval_sections(octagon, 4, 6, np.array([x, g.apply(x)]), 8.0)
    cross = np.abs(np.vdot(vals[:, 0], vals[:, 1]))
    norms = np.linalg.norm(vals[:, 0]) * np.linalg.norm(vals[:, 1])
    assert cross / norms > 1.0 - 1e-8


def test_scan_trivial(trivial):
    rep = very_ampleness_scan(trivial, 2, d=2, radius=2.0, n_samples=25)
    assert rep.jet_pass_rate == 1.0
    assert rep.point_pass_rate == 1.0


def test_scan_monotone_in_degree(octagon):
    r3 = very_ampleness_scan(octagon, 4, d=3, radius=7.0, n_samples=20)
    r6 = very_ampleness_scan(octagon, 4, d=6, radius=7.0, n_samples=20)
    assert r6.jet_pass_rate >= r3.jet_pass_rate
    assert r6.point_pass_rate >= r3.point_pass_rate


def test_sampler_stays_in_domain(octagon):
    from discforms.domain import dirichlet_domain
    pts = sample_fundamental_domain(octagon, 50, seed=3)
    dom = dirichlet_domain(octagon, spacing=0.05)
    assert np.all(in_convex_polygon(dom.vertices, pts, 1e-9))
