"""Fuchsian group arithmetic: elements, presets, orbit-ball enumeration.

Group elements are SU(1,1) pairs (alpha, beta) acting on the disc by
z -> (alpha z + beta)/(conj(beta) z + conj(alpha)), together with the word
in the generators that produced them.  Elements are compared in PSU(1,1),
i.e. up to a global sign of the pair.

Enumeration is by geometric ball rather than by word length.  At 0 it is a
breadth-first search over freely reduced words, pruning a branch once its
displacement exceeds the target radius plus a margin; when D_0 is the
Dirichlet polygon about 0 and the alphabet pairs its sides, the descent
lemma makes the margin a rounding slack alone and the search tree is the
ball.  Each child is tested on |beta|^2 before it is built, so only the
children that can come within reach are multiplied, measured and
deduplicated.  At other base points x the ball is cut from the ball at 0 of
radius R + 2 rho(0, x) (see enumerate_ball).  Products are re-normalized to
SU(1,1) after every multiplication to control drift, and deduplicated on
a rounded, sign-invariant key, one sort per key set and level (_accept).
An element's bits follow from its BFS path alone, not from the build
radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, ConfigError, NonUnitary
from .geometry import (check_disc_point, check_su11, dirichlet_polygon,
                       disc_ratio, distance, klein_sides, mobius,
                       mobius_jacobian, rho_error)

# Deduplication tolerance in max-norm on (alpha, beta) up to sign.  Generator
# entries are algebraic numbers evaluated in double precision; renormalized
# products of <= 40 letters stay far below this drift.
DEDUP_TOL = 1e-9
# Largest enumeration radius (target plus margin) at which DEDUP_TOL still
# separates distinct orbit images; see _dedup_keys.
DEDUP_MAX_RADIUS = 19.0

# Most elements a BFS build may keep in its tree before BudgetExceeded.
ELEMENT_CAP = 5_000_000

# _side_pairing takes a side of D_0 for the bisector of 0 and s 0, and s^-1
# for its pairing, within _SIDE_TOL; a vertex cycle closes when k times its
# angle sum, k = round(2 pi / sum), makes 2 pi within _ANGLE_TOL.  An angle
# at v is good to a few ulps over 1 - |v|^2.  On the regular 4g-gons for
# g = 2 to 5 sides miss by 6.5e-16, pairings by 8.8e-15 and the one cycle
# of 4g angles by 1.7e-12, 1/580 of _ANGLE_TOL.
_SIDE_TOL, _ANGLE_TOL = 1e-12, 1e-9

# Pairs orbit_pairs handles at once: ~1 MB complex temporaries, which stay
# in cache.  Chunks of 4M pairs ran slower and held about 300 MB at the CLI
# defaults.
_PAIR_CHUNK = 65_536


@dataclass(frozen=True)
class GroupElement:
    """A disc automorphism as an SU(1,1) pair with its defining word."""

    alpha: complex
    beta: complex
    word: tuple = ()

    def __post_init__(self):
        # Loose sanity guard only: deep products cannot hold a tighter
        # defect in double precision.  Ball elements are checked at 1e-10
        # by the enumeration tests.
        check_su11(self.alpha, self.beta, tol=1e-5)

    def apply(self, z):
        return mobius(self.alpha, self.beta, z)

    def jac(self, z):
        return mobius_jacobian(self.alpha, self.beta, z)

    def inverse(self):
        return GroupElement(np.conj(self.alpha), -self.beta,
                            tuple(-l for l in reversed(self.word)))


def _product(pa, pb, ga, gb):
    """The products p g of SU(1,1) pairs (pa, pb) and (ga, gb), elementwise
    (apply g first), renormalized to SU(1,1)."""
    # Named operands (parameters are names too): NumPy computes a product
    # with a temporary of 16,384 or more elements on its right in place,
    # operands swapped, which moves last bits; the level's size, so the
    # radius, would set them.
    gac, gbc = np.conj(ga), np.conj(gb)
    ca = pa * ga + pb * gbc
    cb = pa * gb + pb * gac
    norm = np.sqrt(np.abs(ca) ** 2 - np.abs(cb) ** 2)
    ca /= norm
    cb /= norm
    return ca, cb


def _psu_gap(a1, b1, a2, b2):
    """Max-norm distance of each pair (a1, b1) from each pair (a2, b2), up
    to a global sign: shape (len(a1), len(a2))."""
    a1, b1 = a1[:, None], b1[:, None]
    same = np.maximum(np.abs(a1 - a2), np.abs(b1 - b2))
    flip = np.maximum(np.abs(a1 + a2), np.abs(b1 + b2))
    return np.minimum(same, flip)


@dataclass
class FuchsianGroup:
    """Generators, relators and a name; the ball at 0 and domains."""

    generators: list
    relators: list = field(default_factory=list)
    name: str = ""
    # caches, not part of the group's value: == compares the fields above
    _ball_at_0: OrbitBall = field(default=None, repr=False, compare=False)
    _domain_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    @property
    def is_trivial(self):
        return len(self.generators) == 0

    def _generator_pairs(self):
        """The generators' alphas and betas, as two complex arrays."""
        return (np.array([g.alpha for g in self.generators], dtype=complex),
                np.array([g.beta for g in self.generators], dtype=complex))

    @cached_property
    def alphabet(self):
        """BFS letters: every generator, plus inverses not already present.

        (letters, alphas, betas, inv_index) where letters[i] is the signed
        1-based word letter of alphabet entry i and inv_index[i] the
        alphabet index of its inverse.  The inverse (conj(a), -b) of each
        generator joins, in generator order, unless an entry is within
        DEDUP_TOL of it.  Built on first use; an ambiguous alphabet raises
        ConfigError then, and again at every later use.
        """
        gen_a, gen_b = self._generator_pairs()
        n = len(gen_a)
        cand_a = np.concatenate([gen_a, np.conj(gen_a)])
        cand_b = np.concatenate([gen_b, -gen_b])
        close = _psu_gap(cand_a, cand_b, cand_a, cand_b) <= DEDUP_TOL
        keep = list(range(n))
        for k in range(n, 2 * n):
            if not close[k, keep].any():
                keep.append(k)
        letters = tuple(k + 1 if k < n else n - k - 1 for k in keep)
        alphas, betas = cand_a[keep], cand_b[keep]
        match = _psu_gap(np.conj(alphas), -betas, alphas, betas) <= DEDUP_TOL
        if np.any(np.count_nonzero(match, axis=1) != 1):
            raise ConfigError("alphabet is not inverse-closed without "
                              "ambiguity; generators too close together")
        # one match per row, so the column indices come in row order
        inv_index = np.nonzero(match)[1]
        # every caller shares these, so none may write
        for arr in (alphas, betas, inv_index):
            arr.flags.writeable = False
        return letters, alphas, betas, inv_index

    @cached_property
    def dirichlet_at_0(self):
        """Whether D_0 is the Dirichlet polygon about 0, its sides paired by
        the alphabet (_side_pairing): enumerate_ball's margin-0 premise."""
        return _side_pairing(self.alphabet) is not None

    def _generator_displacements(self, x):
        a, b = self._generator_pairs()
        return distance(x, mobius(a, b, x))

    def min_generator_displacement(self, x=0.0j):
        d = self._generator_displacements(x)
        return float(np.min(d)) if len(d) else 0.0

    def max_generator_displacement(self, x):
        return float(np.max(self._generator_displacements(x), initial=0.0))

    def reduce_points(self, zs):
        """Orbit representatives of zs, moved by _descend: into D_0 when
        dirichlet_at_0.  Points off the disc are rejected, not carried."""
        z = check_disc_point(np.array(zs, dtype=complex))[:, None]
        return _descend(*self.alphabet[1:3], z)[:, 0]


def _descend(a, b, z):
    """The rows of z, each moved by the letter (a, b) that takes its first
    point nearest 0, until no letter takes it nearer."""
    while len(a):
        img = mobius(a[:, None, None], b[:, None, None], z)
        img = img[np.argmin(np.abs(img[..., 0]), axis=0), np.arange(len(z))]
        move = np.abs(img[:, 0]) < np.abs(z[:, 0])
        if not move.any():
            break
        z[move] = img[move]
    return z


def _side_pairing(alphabet):
    """(vertices, interior angles) of the polygon P that the bisectors of 0
    and s 0 cut over the letters s (geometry.dirichlet_polygon), or None
    unless Poincare's polygon theorem (Beardon 1983, 9.8) makes P the
    Dirichlet polygon about 0.  The checks: 1. P is bounded and no letter
    fixes 0; 2. each side's Klein chord Re(conj(n) k) <= c has c n = s 0
    for a letter s; 3. s^-1 maps side s onto side s^-1, end to start (2
    and 3 within _SIDE_TOL); 4. each vertex cycle's angles sum to 2 pi/k,
    k >= 1 an integer, within _ANGLE_TOL; 5. each letter that pairs no
    side is a word in the pairings: _descend brings its images of 0 and of
    a vertex back within DEDUP_TOL.  By 3 and 4, P is a fundamental domain
    of the group the pairings generate, by 5 that is the whole group, and
    the Dirichlet polygon lies in P with its area, so the two are equal."""
    _, a, b, inv = alphabet
    p = b / np.conj(a)                       # s 0 per letter
    if np.any(np.abs(p) <= _SIDE_TOL) or (v := dirichlet_polygon(p)) is None:
        return None
    n, c = klein_sides(v)
    miss = np.abs((c * n)[:, None] - p)
    side = np.argmin(miss, axis=1)           # the letter of each side
    partner = np.argmax(side == inv[side][:, None], axis=1)  # side of s^-1
    if (len(set(side)) < len(v) or np.any(side[partner] != inv[side])
            or np.max(np.min(miss, axis=1)) > _SIDE_TOL):
        return None
    u, w = np.roll(v, 1), np.roll(v, -1)     # each side runs v -> w
    if np.max(np.abs(mobius(np.conj(a[side]), -b[side], np.stack([v, w]))
                     - np.stack([w[partner], v[partner]]))) > _SIDE_TOL:
        return None
    # the angle at v from the geodesic to w round to the geodesic to u
    angle = np.angle((u - v) / (1.0 - np.conj(v) * u)
                     * (1.0 - np.conj(v) * w) / (w - v))
    # s^-1 takes the start of side s to the start of the side after s^-1
    step, turn = ((partner + 1) % len(v)).tolist(), angle.tolist()
    for i in range(len(v)):
        total, j = turn[i], step[i]
        while j != i:
            total, j = total + turn[j], step[j]
        if abs(round(2.0 * np.pi / total) * total - 2.0 * np.pi) \
                > _ANGLE_TOL:
            return None
    q = np.array([0.0, v[0]])
    idle = np.delete(np.arange(len(p)), side)
    z = _descend(a[side], b[side], mobius(a[idle, None], b[idle, None], q))
    return None if np.any(np.abs(z - q) > DEDUP_TOL) else (v, angle)


@dataclass
class OrbitBall:
    """Deduplicated {gamma : rho(x, gamma x) <= R}, sorted by displacement.

    Parallel arrays in ball order: displacement, ties in BFS order, so each
    smaller radius is a prefix.  Words are not stored.  ``nodes`` places
    each element in the BFS tree ``parents``/``letters`` (parent node or -1,
    last signed letter or 0 at the root), which a restricted ball shares
    with the ball it was cut from.
    """

    base: complex
    radius: float
    alphas: np.ndarray
    betas: np.ndarray
    displacements: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    letters: np.ndarray

    def __post_init__(self):
        # restrictions are views into the cached ball, so none may write
        for arr in (self.alphas, self.betas, self.displacements, self.nodes,
                    self.parents, self.letters):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.alphas)

    @property
    def words(self):
        """Freely reduced words of this ball's elements, spelled on demand."""
        cur = self.nodes
        steps = []
        while np.any(cur >= 0):
            inside = cur >= 0
            steps.append(np.where(inside, self.letters[cur], 0))
            cur = np.where(inside, self.parents[cur], -1)
        # steps[k] holds each word's k-th letter from the end, 0 before
        # its start; reversed and stripped of zeros, a row is the word
        rows = np.stack(steps[::-1], axis=1).tolist()
        return [tuple(filter(None, row)) for row in rows]

    def terms(self, z, out=None):
        """(gamma z, den) per element, den = conj(beta) z + conj(alpha).

        j_gamma(z) = den^-2.  Shape (n,) for a scalar z and (n, len(z)) for
        an array, rows in ball order; written into the pair ``out`` when
        given.  gamma z is formed only when out gives it a slot: with out
        = (None, den) only den is, and the first of the pair is None.
        """
        z = np.asarray(z, dtype=complex)
        a, b = self.alphas, self.betas
        if z.ndim:
            a, b, z = a[:, None], b[:, None], z[None, :]
        if out is None:
            shape = np.broadcast_shapes(a.shape, z.shape)
            out = np.empty(shape, complex), np.empty(shape, complex)
        gz, den = out
        # in place, but the steps and operand order of (a z + b)/den
        np.multiply(np.conj(b), z, out=den)
        den += np.conj(a)
        if gz is not None:
            np.multiply(a, z, out=gz)
            gz += b
            gz /= den
        return gz, den

    def point_blocks(self, zs):
        """zs split into blocks of about 2^16 ball x point terms (1 MB per
        complex workspace row), with two or more points per block when zs
        has two.  Summed over the ball, such a block adds each column's
        terms in ball order, so no bit depends on the split; NumPy sums a
        lone column pairwise.
        """
        step = max(2, 2 ** 16 // len(self))
        return np.array_split(zs, max(1, min(-(-zs.size // step),
                                             zs.size // 2)))

    def rows(self, rows):
        """The elements in the slice ``rows`` of ball order, as a view.

        Not a ball unless the slice is a prefix; it serves to evaluate
        terms in blocks of rows.
        """
        return OrbitBall(self.base, self.radius, self.alphas[rows],
                         self.betas[rows], self.displacements[rows],
                         self.nodes[rows], self.parents, self.letters)

    def restrict(self, radius):
        """The elements with displacement <= radius: a prefix view."""
        if radius > self.radius + 1e-15:
            raise ValueError("cannot grow a ball by restriction")
        n = np.searchsorted(self.displacements, radius, "right")
        return OrbitBall(self.base, radius, self.alphas[:n], self.betas[:n],
                         self.displacements[:n], self.nodes[:n],
                         self.parents, self.letters)


def _probe_points(x):
    """Two generic interior points whose images identify an element.

    A disc isometry other than the identity fixes at most one interior
    point, so two distinct group elements cannot agree on both probes.  The
    image pair is PSU(1,1)-invariant, which sidesteps the sign ambiguity of
    the matrix entries entirely.
    """
    p2 = (x + 0.3) / (1.0 + np.conj(x) * 0.3)
    return x, p2


def _dedup_keys(i1, i2):
    """Two staggered integer keys per element; straddle-safe dedup.

    Keys are the rounded images i1, i2 of the two probe points.  Euclidean
    spacing of distinct images shrinks like e^(-displacement) near the
    boundary, so the fixed 1e-9 tolerance is valid for enumeration radii up
    to DEDUP_MAX_RADIUS, which enumerate_ball enforces.  Each key is an
    (n, 2) int64 array, one column per probe image: the image's rounded
    coordinates lie within 2^30 of zero, so offset by 2^30 they pack into
    31 bits each without collisions.
    """
    comps = np.stack([i1.real, i1.imag, i2.real, i2.imag], axis=1) / DEDUP_TOL
    keys = []
    for shift in (0.0, 0.5):
        k = np.round(comps + shift).astype(np.int64) + (1 << 30)
        keys.append(np.stack([k[:, 0] << 31 | k[:, 1],
                              k[:, 2] << 31 | k[:, 3]], axis=1))
    return keys


def _first_rows(keys, rows, kind):
    """The least of rows with each distinct key, in key order.

    One argsort of the given kind on the first column; only the rows in
    runs of equal first columns (repeats, mostly) are sorted again, on the
    second column and the row.
    """
    rows = rows[np.argsort(keys[rows, 0], kind=kind)]
    k0 = keys[rows, 0]
    at = np.flatnonzero(k0[1:] == k0[:-1]) + 1   # tied with the row before
    if len(at):
        run = np.zeros(len(rows), dtype=bool)
        run[at - 1] = run[at] = True
        run = np.flatnonzero(run)
        sub = rows[run]
        rows[run] = sub[np.lexsort((sub, keys[sub, 1], k0[run]))]
    first = np.ones(len(rows), dtype=bool)
    first[at] = keys[rows[at], 1] != keys[rows[at - 1], 1]
    return rows[first]


class _SeenKeys:
    """Growing set of packed key pairs: two columns sorted on the first,
    each closed by a sentinel above every key.

    A query binary-searches the first column once, then compares the
    second column along the run of equal first columns, which the sentinel
    ends.  Such runs (distinct elements with the same rounded image of the
    base point) are rare, so the loop is short and runs over the tied
    queries only.  New keys are merged in at the places their query found,
    one copy of each column per addition.
    """

    _END = np.iinfo(np.int64).max

    def __init__(self, keys):
        keys = keys[_first_rows(keys, np.arange(len(keys)), "stable")]
        self.first, self.second = (np.append(col, self._END)
                                   for col in keys.T)

    def find(self, keys):
        """(held, pos): whether each key is in the set, and where its first
        column would go in the set's."""
        pos = np.searchsorted(self.first, keys[:, 0])
        held = np.zeros(len(keys), dtype=bool)
        live, j = np.arange(len(keys)), pos
        while len(live):
            tied = self.first[j] == keys[live, 0]
            live, j = live[tied], j[tied]
            hit = self.second[j] == keys[live, 1]
            held[live[hit]] = True
            live, j = live[~hit], j[~hit] + 1
        return held, pos

    def merge(self, keys, pos):
        """Add distinct keys that find did not hold, in key order, at the
        places pos it gave them."""
        at = pos + np.arange(len(pos))
        old = np.ones(len(self.first) + len(at), dtype=bool)
        old[at] = False
        old = np.flatnonzero(old)
        cols = []
        for col, add in zip((self.first, self.second), keys.T):
            cols.append(np.empty(len(col) + len(add), dtype=np.int64))
            cols[-1][old] = col
            cols[-1][at] = add
        self.first, self.second = cols


def _accept(k1, k2, seen1, seen2):
    """Rows of one BFS level that dedup keeps, in order; marks them seen.

    The rule: visit the rows in order, keep each row whose k1 and k2 are
    both unseen, and mark both seen.  Within a level only kept rows mark
    keys, so this is the first row of each k1, then those unseen on earlier
    levels, then the first row of each k2 among the rest, unless seen
    earlier.  Each key set is sorted once: rows come in BFS order, so k1
    takes a quicksort, while rows in k1 order are nearly in k2 order, which
    a stable (run-merging) sort takes in about one pass.
    """
    rows = _first_rows(k1, np.arange(len(k1)), "quicksort")
    held, pos1 = seen1.find(k1[rows])
    rows, pos1 = rows[~held], pos1[~held]
    new = _first_rows(k2, rows, "stable")
    held, pos2 = seen2.find(k2[new])
    new, pos2 = new[~held], pos2[~held]
    seen2.merge(k2[new], pos2)
    kept = np.zeros(len(k1), dtype=bool)
    kept[new] = True
    mine = kept[rows]
    seen1.merge(k1[rows[mine]], pos1[mine])
    return np.flatnonzero(kept)


def enumerate_ball(group, x, radius):
    """All gamma with rho(x, gamma x) <= radius.

    At x = 0, by pruned BFS (_bfs_ball).  Descent lemma (Beardon 1983,
    ch. 9; Katok 1992, ch. 3): when D_0 is the Dirichlet polygon about 0
    and the alphabet pairs its sides (``dirichlet_at_0``), every gamma != id
    has a letter s with rho(0, gamma s 0) < rho(0, gamma 0).  The geodesic
    from 0 to gamma 0 enters the cell gamma D_0 at a point q on a side of
    it, and the cell gamma s D_0 across that side holds q; as Dirichlet
    cells are the Voronoi cells of the orbit, rho(0, gamma s 0) <= rho(0, q)
    + rho(q, gamma 0) = rho(0, gamma 0), with equality only for gamma s 0 =
    gamma 0.  So every ball element ends a path from the identity along
    which the displacement rises, the margin is a rounding slack alone, and
    the BFS tree is the ball (5,433 nodes at radius 10).  When the check
    fails the margin is the largest generator displacement at 0, and
    completeness is empirical.

    At other x, by filtering the ball at 0: rho(x, gamma x) <= R gives
    rho(0, gamma 0) <= rho(0, x) + R + rho(gamma x, gamma 0) = R +
    2 rho(0, x), so the ball at x is the part of the group's ball at 0 of
    that radius (plus a rounding slack) with rho(x, gamma x) <= R, sorted
    by it, ties in the order of the ball at 0.  It is exactly as complete
    as the ball at 0, certified on the octagon at every x, and shares its
    tree, so words and restriction work as there.

    The group keeps one ball, its last ball at 0, which serves every cut
    and smaller radius; a ball at x != 0 is cut afresh on every call.  Past
    DEDUP_MAX_RADIUS or ELEMENT_CAP a build raises BudgetExceeded.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    x = complex(x if x == 0 else check_disc_point(x))    # 0 needs none
    if x != 0:
        rho = float(distance(0.0j, x))
        # two errors: a kept element's computed rho(x, gamma x) and its
        # rho(0, gamma 0), each at most rho_error(radius + 2 rho)
        reach = radius + 2.0 * rho + 2.0 * rho_error(radius + 2.0 * rho)
        if reach > DEDUP_MAX_RADIUS:
            raise BudgetExceeded(
                f"radius + 2 rho(0, x) + slack = {reach:.6g} exceeds "
                f"{DEDUP_MAX_RADIUS:g}, the limit of the {DEDUP_TOL:g} "
                f"dedup key")
        at0 = enumerate_ball(group, 0.0j, reach)
        disp = distance(x, mobius(at0.alphas, at0.betas, x))
        kept = np.flatnonzero(disp <= radius)
        kept = kept[np.argsort(disp[kept], kind="stable")]
        return OrbitBall(x, radius, at0.alphas[kept], at0.betas[kept],
                         disp[kept], at0.nodes[kept], at0.parents,
                         at0.letters)
    held = group._ball_at_0
    if held is None or held.radius < radius:
        # A kept element is truly within radius + e, e = rho_error(radius)
        # (its 4096 ulps absorb e^margin < 1.001), and by the lemma so is
        # every node on its descent path, computed within radius + 2 e.
        margin = (2.0 * rho_error(radius) if group.dirichlet_at_0
                  else group.max_generator_displacement(0.0j))
        held = group._ball_at_0 = _bfs_ball(group, 0.0j, radius, margin)
    return held.restrict(radius)


def _within_reach(frontier_a, frontier_b, letter_terms, limit):
    """(frontier x alphabet) mask of the children p g that can have
    rho(0, p g 0) <= limit, tested on |beta|^2 before any is built.

    letter_terms is (|ga|^2, |gb|^2, gb ga) per alphabet entry.  The child's
    unnormalized beta is cb = pa gb + pb conj(ga), so |cb|^2 = mag +
    2 Re((pa conj(pb)) (gb ga)) with mag = |pa|^2 |gb|^2 + |pb|^2 |ga|^2, and
    |cb|^2 = sinh^2(rho/2) (|ca|^2 - |cb|^2), where |ca|^2 - |cb|^2 is
    (|pa|^2 - |pb|^2)(|ga|^2 - |gb|^2) up to rounding.  The mask must pass
    every child whose computed displacement passes, so it errs wide:
    - that displacement is off by e = rho_error(limit), so the limit
      grows by 2 e;
    - the parent's drift of |pa|^2 - |pb|^2 from 1 after renormalizing, and
      the rounding of ca and cb, a few ulps of |ca| (|pa| |ga| + |pb| |gb|)
      <= 2 e^limit |ga|, move |ca|^2 - |cb|^2 by under e |ga| relative;
    - the outer product rounds by a few ulps of mag, which bounds the cross
      term too.
    The slack 1e-6 + e |ga| relative and 1e-6 mag absolute is 10^3 times
    these or more; a wider slack costs only a few survivors.
    tests/test_group.py::test_reach_mask_passes_every_kept_child measures
    the true error against it.
    """
    ga2, gb2, gbga = letter_terms
    e = rho_error(limit)
    reach = (np.sinh(limit / 2.0 + e) ** 2 * (ga2 - gb2)
             * (1.0 + 1e-6 + e * np.sqrt(ga2)))
    cross = frontier_a * np.conj(frontier_b)
    mag = np.multiply.outer(np.abs(frontier_a) ** 2, gb2)
    mag += np.multiply.outer(np.abs(frontier_b) ** 2, ga2)
    cb2 = np.multiply.outer(cross.real, 2.0 * gbga.real)
    cb2 -= np.multiply.outer(cross.imag, 2.0 * gbga.imag)
    cb2 += mag
    mag *= 1e-6
    mag += reach
    return cb2 <= mag


def _bfs_ball(group, x, radius, margin):
    """BFS ball about x: no node past radius + margin is expanded, and
    enumerate_ball proves its margin at 0; off 0 with a wide margin, it is
    the tests' reference.  Each child is tested on |beta|^2 before it is
    built (_within_reach), so products, displacements and dedup run only
    for children that can land within reach.  The tree is kept whole, in
    BFS order."""
    letters, gen_a, gen_b, inv_index = group.alphabet
    expand_limit = radius + margin
    if expand_limit > DEDUP_MAX_RADIUS:
        raise BudgetExceeded(
            f"radius + margin = {expand_limit:.6g} exceeds "
            f"{DEDUP_MAX_RADIUS:g}, the limit of the {DEDUP_TOL:g} dedup key")
    # a child with rho(x, gamma x) <= expand_limit has rho(0, gamma 0) <=
    # expand_limit + 2 rho(0, x)
    reach0 = expand_limit + 2.0 * float(distance(0.0j, x))
    letter_terms = (np.abs(gen_a) ** 2, np.abs(gen_b) ** 2, gen_b * gen_a)

    # Growing global store; parent/letter pairs spell the words on demand.
    all_a = [np.array([1.0 + 0j])]
    all_b = [np.array([0.0j])]
    all_d = [np.array([0.0])]
    all_parent = [np.array([-1], dtype=np.int64)]
    all_letter = [np.array([-1], dtype=np.int64)]  # alphabet index, -1 = root
    probes = _probe_points(x)
    k1, k2 = _dedup_keys(*(mobius(all_a[0], all_b[0], p) for p in probes))
    seen1 = _SeenKeys(k1)
    seen2 = _SeenKeys(k2)

    total = 1
    frontier_idx = np.array([0], dtype=np.int64)
    frontier_a = all_a[0]
    frontier_b = all_b[0]
    frontier_letter = all_letter[0]

    while len(frontier_idx) > 0:
        # The reduced one-letter extensions of the frontier that can come
        # within reach, in (parent, letter) order.
        ok = _within_reach(frontier_a, frontier_b, letter_terms, reach0)
        back = np.flatnonzero(frontier_letter >= 0)
        ok[back, inv_index[frontier_letter[back]]] = False
        rows, lidx = np.nonzero(ok)
        par, pa, pb = frontier_idx[rows], frontier_a[rows], frontier_b[rows]

        ca, cb = _product(pa, pb, gen_a[lidx], gen_b[lidx])
        gx = mobius(ca, cb, x)          # for the displacement and k1 both
        disp = distance(x, gx)
        keep = disp <= expand_limit
        par, ca, cb, lidx, disp, gx = (c[keep] for c in
                                       (par, ca, cb, lidx, disp, gx))
        new_rows = _accept(*_dedup_keys(gx, mobius(ca, cb, probes[1])),
                           seen1, seen2)
        if not len(new_rows):
            break
        total += len(new_rows)
        if total > ELEMENT_CAP:
            raise BudgetExceeded(f"orbit ball exceeded cap {ELEMENT_CAP}")

        base = sum(len(a) for a in all_a)
        all_a.append(ca[new_rows])
        all_b.append(cb[new_rows])
        all_d.append(disp[new_rows])
        all_parent.append(par[new_rows])
        all_letter.append(lidx[new_rows])

        frontier_idx = base + np.arange(len(new_rows))
        frontier_a = ca[new_rows]
        frontier_b = cb[new_rows]
        frontier_letter = lidx[new_rows]

    # Only the ball itself is kept; the tree stays whole, in BFS order.
    kept = np.flatnonzero(np.concatenate(all_d) <= radius)
    alphas, betas, disps = (np.concatenate(c)[kept]
                            for c in (all_a, all_b, all_d))
    # Ball order: displacement, ties in BFS order.
    order = np.argsort(disps, kind="stable")
    # alphabet index -1 (the root) picks the appended 0
    signed = np.append(np.array(letters, dtype=np.int64), 0)
    return OrbitBall(x, radius, alphas[order], betas[order], disps[order],
                     kept[order], np.concatenate(all_parent),
                     signed[np.concatenate(all_letter)])


def orbit_pairs(group, x, zs, r):
    """Pairs (iz, p): orbit points p = gamma x with rho(p, zs[iz]) < r.

    x is one base point, or an array of one per z.  rho < r is tested as
    |(p - z)/(1 - conj(p) z)| < tanh(r/2), with no logarithms.  A pair's
    element has displacement d = rho(0, gamma 0) with |d - rho(0, z)| <=
    rho(gamma 0, z) < w = r + rho(0, x) by the triangle inequality, so the
    group's ball at 0 of radius max (rho(0, z) + w) covers the query, and
    each z is tested only against the window of the displacement-sorted
    ball with d within w (plus rounding slack) of rho(0, z).  Points are
    taken in order of rho(0, z), in blocks of at most _PAIR_CHUNK pairs (a
    single point whose window is larger forms its own block).  The pairs
    come out grouped by point in that order, each point's pairs in ball
    order.
    """
    zs = check_disc_point(np.atleast_1d(np.asarray(zs, dtype=complex)))
    x = check_disc_point(x)
    if np.ndim(x) and np.shape(x) != zs.shape:
        raise ValueError(f"{np.size(x)} base points for {zs.size} points")
    w = r + distance(0.0j, x)
    dz = distance(0.0j, zs)
    ball = enumerate_ball(group, 0.0j, float(np.max(dz + w)))
    # gamma x per element, and per point when x is: (len(ball), len(zs))
    pts = ball.terms(x)[0]
    t_max = np.tanh(r / 2.0)
    # rho(0, z), the displacements and the tested rho(p, z) all stay below
    # rho(0, z) + w, so one slack covers all three errors
    slack = rho_error(dz + w)
    lo = np.searchsorted(ball.displacements, dz - w - slack, "left")
    hi = np.searchsorted(ball.displacements, dz + w + slack, "right")
    order = np.argsort(dz, kind="stable")
    lo, hi = lo[order], hi[order]
    iz, ib = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    s = 0
    while s < len(zs):
        # grow the block while its points times its union window fit
        e = s + max(1, _PAIR_CHUNK // max(1, hi[s] - lo[s]))
        w_lo = np.minimum.accumulate(lo[s:e])
        w_hi = np.maximum.accumulate(hi[s:e])
        cost = np.arange(1, len(w_lo) + 1) * (w_hi - w_lo)
        n = max(1, int(np.searchsorted(cost, _PAIR_CHUNK, "right")))
        w0, w1 = w_lo[n - 1], w_hi[n - 1]
        block = order[s:s + n]
        pts_w = pts[w0:w1, block].T if pts.ndim == 2 else pts[w0:w1]
        t = disc_ratio(pts_w, zs[block, None])
        rows, cols = np.nonzero(t < t_max)
        iz.append(block[rows])
        ib.append(w0 + cols)
        s += n
    iz, ib = np.concatenate(iz), np.concatenate(ib)
    return iz, pts[ib, iz] if pts.ndim == 2 else pts[ib]


def orbit_counts(group, x, zs, r):
    """Number of orbit points gamma(x) with rho(gamma x, z) < r, per z; x
    is one base point or one per z (see orbit_pairs)."""
    if r <= 0:
        raise ValueError("r must be positive")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    iz, _ = orbit_pairs(group, x, zs, r)
    return np.bincount(iz, minlength=len(zs))


# ---------------------------------------------------------------------------
# Presets and config files
# ---------------------------------------------------------------------------

def preset_genus2_octagon():
    """Standard genus-2 surface group of the regular hyperbolic octagon.

    Eight side-pairing translations, each a rotated copy (by k pi/4) of one
    hyperbolic translation along the real axis with cosh(d0/2) = 1 + sqrt(2);
    generator k+4 is the inverse of generator k.  The quotient is the Bolza
    surface; the Dirichlet domain of the origin is the regular octagon.
    """
    ch = 1.0 + np.sqrt(2.0)          # cosh(d0 / 2)
    sh = np.sqrt(2.0 + 2.0 * np.sqrt(2.0))   # sinh(d0 / 2)
    gens = []
    for k in range(8):
        phase = np.exp(1j * k * np.pi / 4.0)
        gens.append(GroupElement(ch + 0.0j, sh * phase, (k + 1,)))
    return FuchsianGroup(gens, [_OCTAGON_RELATOR], name="genus2-octagon")


# Length-8 relator of the octagon side pairing, in commutator form; found by
# searching short products of the generators for the identity and frozen
# here.  Verified in the tests by their word product, a fold of _product.
_OCTAGON_RELATOR = (1, 4, 7, 2, 5, 8, 3, 6)


def from_config_text(text):
    """Parse the plain key-value group format; raises ConfigError with
    line numbers on malformed input, unknown and repeated keys."""
    name = None
    gens = {}
    relators = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "name":
            if name is not None:
                raise ConfigError(f"line {ln}: repeated key 'name'")
            name = val
        elif key.startswith("generator."):
            try:
                idx = int(key.split(".", 1)[1])
                parts = [float(p) for p in val.split()]
                if len(parts) != 4:
                    raise ValueError
            except ValueError:
                raise ConfigError(
                    f"line {ln}: generator needs 4 floats 're(a) im(a) "
                    f"re(b) im(b)'") from None
            if idx in gens:
                raise ConfigError(f"line {ln}: repeated key {key!r}")
            gens[idx] = (complex(parts[0], parts[1]),
                         complex(parts[2], parts[3]))
        elif key == "relator":
            try:
                relators.append(tuple(int(p) for p in val.split()))
            except ValueError:
                raise ConfigError(f"line {ln}: relator letters must be "
                                  f"signed integers") from None
        else:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
    if sorted(gens) != list(range(len(gens))):
        raise ConfigError("generator indices must be 0..n-1 without gaps")
    elements = []
    for k in range(len(gens)):
        a, b = gens[k]
        try:
            elements.append(GroupElement(a, b, (k + 1,)))
        except NonUnitary as exc:
            raise ConfigError(f"generator.{k}: {exc}") from exc
    return FuchsianGroup(elements, relators, name=name or "")


def load_group(source):
    """Resolve a group from a preset name or a config file path."""
    if source == "genus2-octagon":
        return preset_genus2_octagon()
    if source == "trivial":
        return FuchsianGroup([], [], name="trivial")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read group source {source!r}: {exc}")
    return from_config_text(text)
