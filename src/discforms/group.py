"""Fuchsian group arithmetic: elements, presets, orbit-ball enumeration.

Group elements are SU(1,1) pairs (alpha, beta) acting on the disc by
z -> (alpha z + beta)/(conj(beta) z + conj(alpha)), together with the word
in the generators that produced them.  Elements are compared in PSU(1,1),
i.e. up to a global sign of the pair.

Enumeration is by geometric ball rather than by word length: breadth-first
search over freely reduced words, pruning a branch once its displacement
exceeds the target radius plus the largest generator displacement (children
can shrink the displacement by at most that much).  Products are
re-normalized to SU(1,1) after every multiplication to control drift, and
deduplicated on a rounded, sign-normalized key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ConfigError, NonUnitary
from .geometry import (check_disc_point, check_su11, distance, mobius,
                       mobius_jacobian)

# Deduplication tolerance in max-norm on (alpha, beta) up to sign.  Generator
# entries are algebraic numbers evaluated in double precision; renormalized
# products of <= 40 letters stay far below this drift.
DEDUP_TOL = 1e-9
# Largest enumeration radius (target plus margin) at which DEDUP_TOL still
# separates distinct orbit images; see _dedup_keys.
DEDUP_MAX_RADIUS = 19.0

# Displacement resolution of the ball order.
_DISP_BIN = 1e-12

DEFAULT_ELEMENT_CAP = 5_000_000

# Pairs orbit_pairs and kernels.relative_poincare handle at once: ~1 MB
# complex temporaries, which stay in cache.  Chunks of 4M pairs ran slower
# and held about 300 MB at the CLI defaults.
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

    @staticmethod
    def identity():
        return GroupElement(1.0 + 0.0j, 0.0j, ())

    def apply(self, z):
        return mobius(self.alpha, self.beta, z)

    def jac(self, z):
        return mobius_jacobian(self.alpha, self.beta, z)

    def compose(self, other):
        """Matrix product self @ other (apply other first), renormalized."""
        a = self.alpha * other.alpha + self.beta * np.conj(other.beta)
        b = self.alpha * other.beta + self.beta * np.conj(other.alpha)
        s = abs(a) ** 2 - abs(b) ** 2
        rs = 1.0 / np.sqrt(s)
        return GroupElement(a * rs, b * rs, _reduce_word(self.word + other.word))

    def inverse(self):
        return GroupElement(np.conj(self.alpha), -self.beta,
                            tuple(-l for l in reversed(self.word)))

    def is_identity(self):
        return (min(abs(self.alpha - 1), abs(self.alpha + 1)) <= DEDUP_TOL
                and abs(self.beta) <= DEDUP_TOL)

    def psu_close(self, other):
        """PSU(1,1) comparison: equal up to a global sign of the pair."""
        same = max(abs(self.alpha - other.alpha), abs(self.beta - other.beta))
        flip = max(abs(self.alpha + other.alpha), abs(self.beta + other.beta))
        return min(same, flip) <= DEDUP_TOL

    def displacement(self, x=0.0j):
        return float(distance(x, self.apply(x)))


def _reduce_word(word):
    """Freely reduce a word of signed generator letters."""
    out = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@dataclass
class FuchsianGroup:
    """Generator set, relators and an orbit-ball cache."""

    generators: list
    relators: list = field(default_factory=list)
    name: str = ""
    _ball_cache: dict = field(default_factory=dict, repr=False)

    @property
    def is_trivial(self):
        return len(self.generators) == 0

    def element_from_word(self, word):
        g = GroupElement.identity()
        for l in word:
            if not (isinstance(l, (int, np.integer)) and l != 0
                    and abs(l) <= len(self.generators)):
                raise ConfigError(f"invalid generator letter {l!r}")
            h = self.generators[abs(l) - 1]
            g = g.compose(h if l > 0 else h.inverse())
        return GroupElement(g.alpha, g.beta, _reduce_word(tuple(word)))

    def relator_residuals(self):
        """Max-norm distance of each relator product from +-identity."""
        out = []
        for w in self.relators:
            g = self.element_from_word(w)
            out.append(min(max(abs(g.alpha - 1), abs(g.beta)),
                           max(abs(g.alpha + 1), abs(g.beta))))
        return out

    def alphabet(self):
        """BFS letters: every generator, plus inverses not already present.

        Returns (letters, alphas, betas, inv_index) where letters[i] is the
        signed 1-based word letter of alphabet entry i and inv_index[i] the
        alphabet index of its inverse.
        """
        entries = []
        for k, g in enumerate(self.generators):
            entries.append((k + 1, g.alpha, g.beta))
        for k, g in enumerate(self.generators):
            gi = g.inverse()
            if not any(GroupElement(a, b).psu_close(gi)
                       for (_, a, b) in entries):
                entries.append((-(k + 1), gi.alpha, gi.beta))
        letters = [e[0] for e in entries]
        alphas = np.array([e[1] for e in entries], dtype=complex)
        betas = np.array([e[2] for e in entries], dtype=complex)
        inv_index = np.empty(len(entries), dtype=np.int64)
        for i, (_, a, b) in enumerate(entries):
            gi = GroupElement(a, b).inverse()
            matches = [j for j, (_, aj, bj) in enumerate(entries)
                       if GroupElement(aj, bj).psu_close(gi)]
            if len(matches) != 1:
                raise ConfigError("alphabet is not inverse-closed without "
                                  "ambiguity; generators too close together")
            inv_index[i] = matches[0]
        return letters, alphas, betas, inv_index

    def min_generator_displacement(self, x=0.0j):
        if self.is_trivial:
            raise ConfigError("trivial group has no generator displacement")
        return min(g.displacement(x) for g in self.generators)

    def max_generator_displacement(self, x=0.0j):
        if self.is_trivial:
            return 0.0
        return max(g.displacement(x) for g in self.generators)


@dataclass
class OrbitBall:
    """Deduplicated {gamma : rho(x, gamma x) <= R}, sorted by displacement.

    Parallel arrays in ball order: displacement bin
    ``bins = round(displacement / _DISP_BIN)``, then sign-normalized matrix
    entries.  Words are not stored.  ``nodes`` places each element in the
    BFS tree ``parents``/``letters`` (parent node or -1, last signed letter
    or 0 at the root), which a restricted ball shares with the ball it was
    cut from.
    """

    base: complex
    radius: float
    alphas: np.ndarray
    betas: np.ndarray
    displacements: np.ndarray
    bins: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    letters: np.ndarray

    def __post_init__(self):
        # restrictions are views into the cached ball, so none may write
        for arr in (self.alphas, self.betas, self.displacements, self.bins,
                    self.nodes, self.parents, self.letters):
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

    @property
    def elements(self):
        return [(GroupElement(a, b, w), d) for a, b, w, d in
                zip(self.alphas, self.betas, self.words, self.displacements)]

    def orbit_points(self):
        """gamma(base) for every element, in ball order."""
        return mobius(self.alphas, self.betas, self.base)

    def terms(self, z):
        """(gamma z, den) per element, den = conj(beta) z + conj(alpha).

        j_gamma(z) = den^-2.  Shape (n,) for a scalar z and (n, len(z)) for
        an array, rows in ball order.
        """
        z = np.asarray(z, dtype=complex)
        a, b = self.alphas, self.betas
        if z.ndim:
            a, b, z = a[:, None], b[:, None], z[None, :]
        den = np.conj(b) * z + np.conj(a)
        return (a * z + b) / den, den

    def restrict(self, radius):
        """The elements with displacement <= radius, as slices where possible.

        Every element more than one bin below radius/_DISP_BIN lies inside
        and every element more than one bin above it outside, since the
        division is monotone and rounding moves a value by at most half a
        bin.  Only the bins in between, where displacements need not be in
        order, are tested one by one.
        """
        if radius > self.radius + 1e-15:
            raise ValueError("cannot grow a ball by restriction")
        b = radius / _DISP_BIN
        lo = np.searchsorted(self.bins, b - 1.0, "left")
        hi = np.searchsorted(self.bins, b + 1.0, "right")
        edge = self.displacements[lo:hi] <= radius
        n = lo + np.count_nonzero(edge)
        if edge[:n - lo].all():
            sel = slice(0, n)
        else:
            sel = np.concatenate([np.arange(lo), lo + np.flatnonzero(edge)])
        return OrbitBall(self.base, radius, self.alphas[sel], self.betas[sel],
                         self.displacements[sel], self.bins[sel],
                         self.nodes[sel], self.parents, self.letters)


def _sign_normalize(alphas, betas):
    """Flip signs so the dominant component of alpha is positive."""
    use_re = np.abs(alphas.real) >= np.abs(alphas.imag)
    lead = np.where(use_re, alphas.real, alphas.imag)
    sign = np.where(lead < 0, -1.0, 1.0)
    return alphas * sign, betas * sign


def _probe_points(x):
    """Two generic interior points whose images identify an element.

    A disc isometry other than the identity fixes at most one interior
    point, so two distinct group elements cannot agree on both probes.  The
    image pair is PSU(1,1)-invariant, which sidesteps the sign ambiguity of
    the matrix entries entirely.
    """
    p2 = (x + 0.3) / (1.0 + np.conj(x) * 0.3)
    return x, p2


def _dedup_keys(alphas, betas, probes):
    """Two staggered integer keys per element; straddle-safe dedup.

    Keys are rounded orbit images of the probe points.  Euclidean spacing
    of distinct images shrinks like e^(-displacement) near the boundary,
    so the fixed 1e-9 tolerance is valid for enumeration radii up to
    DEDUP_MAX_RADIUS, which enumerate_ball enforces.  Each key is an (n, 2)
    int64 array, one column per probe image: the image's rounded
    coordinates lie within 2^30 of zero, so offset by 2^30 they pack into
    31 bits each without collisions.
    """
    p1, p2 = probes
    i1 = mobius(alphas, betas, p1)
    i2 = mobius(alphas, betas, p2)
    comps = np.stack([i1.real, i1.imag, i2.real, i2.imag], axis=1) / DEDUP_TOL
    keys = []
    for shift in (0.0, 0.5):
        k = np.round(comps + shift).astype(np.int64) + (1 << 30)
        keys.append(np.stack([k[:, 0] << 31 | k[:, 1],
                              k[:, 2] << 31 | k[:, 3]], axis=1))
    return keys


def _first_rows(keys, rows):
    """For ascending rows: the first row of each distinct key, in order."""
    order = rows[np.lexsort((keys[rows, 1], keys[rows, 0]))]
    sk = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    return np.sort(order[first])


class _SeenKeys:
    """Growing set of packed key pairs, sorted on the first column.

    A query binary-searches the first column, then compares the second
    column of each tie.  Ties (distinct elements with the same rounded
    image of the base point) are rare, so the loop over them is short.
    """

    def __init__(self, keys):
        self.first = np.empty(0, dtype=np.int64)
        self.second = np.empty(0, dtype=np.int64)
        self.add(keys)

    def contains(self, keys):
        lo = np.searchsorted(self.first, keys[:, 0], "left")
        hi = np.searchsorted(self.first, keys[:, 0], "right")
        hit = np.zeros(len(keys), dtype=bool)
        for k in range(int(np.max(hi - lo, initial=0))):
            j = lo + k
            live = j < hi
            hit[live] |= self.second[j[live]] == keys[live, 1]
        return hit

    def add(self, keys):
        keys = keys[np.argsort(keys[:, 0], kind="stable")]
        pos = np.searchsorted(self.first, keys[:, 0])
        self.first = np.insert(self.first, pos, keys[:, 0])
        self.second = np.insert(self.second, pos, keys[:, 1])


def _accept(k1, k2, seen1, seen2):
    """Rows of one BFS level that dedup keeps, in order; marks them seen.

    The rule: visit the rows in order, keep each row whose k1 and k2 are
    both unseen, and mark both seen.  Within a level only kept rows mark
    keys, so this is the first row of each k1, then those unseen on earlier
    levels, then the first row of each k2 among the rest.
    """
    rows = _first_rows(k1, np.arange(len(k1)))
    rows = rows[~seen1.contains(k1[rows]) & ~seen2.contains(k2[rows])]
    rows = _first_rows(k2, rows)
    seen1.add(k1[rows])
    seen2.add(k2[rows])
    return rows


def enumerate_ball(group, x, radius, margin=None,
                   max_elements=DEFAULT_ELEMENT_CAP):
    """All gamma with rho(x, gamma x) <= radius, by pruned BFS.

    margin defaults to the largest generator displacement at x: a child can
    reduce its parent's displacement by at most that much, so branches with
    displacement > radius + margin are dropped.  A build whose radius +
    margin passes DEDUP_MAX_RADIUS, or which passes max_elements, raises
    BudgetExceeded.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    x = complex(x)
    cache_key = (round(x.real, 12), round(x.imag, 12))
    cached = group._ball_cache.get(cache_key)
    if cached is not None and cached.radius >= radius:
        return cached.restrict(radius)

    letters, gen_a, gen_b, inv_index = group.alphabet()
    if margin is None:
        margin = group.max_generator_displacement(x)
    expand_limit = radius + margin
    if expand_limit > DEDUP_MAX_RADIUS:
        raise BudgetExceeded(
            f"radius + margin = {expand_limit:.6g} exceeds "
            f"{DEDUP_MAX_RADIUS:g}, the limit of the {DEDUP_TOL:g} dedup key")

    # Growing global store; parent/letter pairs spell the words on demand.
    all_a = [np.array([1.0 + 0j])]
    all_b = [np.array([0.0j])]
    all_d = [np.array([0.0])]
    all_parent = [np.array([-1], dtype=np.int64)]
    all_letter = [np.array([-1], dtype=np.int64)]  # alphabet index, -1 = root
    probes = _probe_points(x)
    k1, k2 = _dedup_keys(all_a[0], all_b[0], probes)
    seen1 = _SeenKeys(k1)
    seen2 = _SeenKeys(k2)

    total = 1
    frontier_idx = np.array([0], dtype=np.int64)
    frontier_a = all_a[0]
    frontier_b = all_b[0]
    frontier_letter = all_letter[0]
    n_alpha = len(letters)

    while len(frontier_idx) > 0:
        # All reduced one-letter extensions of the frontier, vectorized.
        par = np.repeat(frontier_idx, n_alpha)
        pa = np.repeat(frontier_a, n_alpha)
        pb = np.repeat(frontier_b, n_alpha)
        plast = np.repeat(frontier_letter, n_alpha)
        lidx = np.tile(np.arange(n_alpha), len(frontier_idx))
        ok = (plast < 0) | (inv_index[np.clip(plast, 0, None)] != lidx)
        par, pa, pb, lidx = par[ok], pa[ok], pb[ok], lidx[ok]

        ca = pa * gen_a[lidx] + pb * np.conj(gen_b[lidx])
        cb = pa * gen_b[lidx] + pb * np.conj(gen_a[lidx])
        norm = np.sqrt(np.abs(ca) ** 2 - np.abs(cb) ** 2)
        ca /= norm
        cb /= norm
        disp = distance(x, mobius(ca, cb, x))
        keep = disp <= expand_limit
        par, ca, cb, lidx, disp = (par[keep], ca[keep], cb[keep],
                                   lidx[keep], disp[keep])
        if len(ca) == 0:
            break

        new_rows = _accept(*_dedup_keys(ca, cb, probes), seen1, seen2)
        if not len(new_rows):
            break
        total += len(new_rows)
        if total > max_elements:
            raise BudgetExceeded(f"orbit ball exceeded cap {max_elements}")

        base = sum(len(a) for a in all_a)
        all_a.append(ca[new_rows])
        all_b.append(cb[new_rows])
        all_d.append(disp[new_rows])
        all_parent.append(par[new_rows])
        all_letter.append(lidx[new_rows])

        exp = disp[new_rows] <= expand_limit
        frontier_idx = base + np.nonzero(exp)[0]
        frontier_a = ca[new_rows][exp]
        frontier_b = cb[new_rows][exp]
        frontier_letter = lidx[new_rows][exp]

    alphas = np.concatenate(all_a)
    betas = np.concatenate(all_b)
    disps = np.concatenate(all_d)
    bins = np.round(disps / _DISP_BIN)

    # Stable deterministic order: displacement bin, then matrix components.
    na, nb = _sign_normalize(alphas, betas)
    order = np.lexsort((nb.imag, nb.real, na.imag, na.real, bins))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    parents = np.concatenate(all_parent)[order]
    # alphabet index -1 (the root) picks the appended 0
    signed = np.append(np.array(letters, dtype=np.int64), 0)
    # a finite group's ball can end below the requested radius
    full = OrbitBall(x, max(radius, float(np.max(disps))),
                     alphas[order], betas[order],
                     disps[order], bins[order], np.arange(len(order)),
                     np.where(parents >= 0, rank[parents], -1),
                     signed[np.concatenate(all_letter)[order]])
    group._ball_cache[cache_key] = full
    return full.restrict(radius)


def orbit_pairs(ball, zs, r):
    """Index pairs (iz, ib) with rho(gamma_ib x, zs[iz]) < r.

    rho < r is tested as |(p - z)/(1 - conj(p) z)| < tanh(r/2), with no
    logarithms.  By the triangle inequality |d - rho(x, z)| <= rho(p, z)
    for an element of displacement d, so each z is tested only against the
    window of the displacement-sorted ball with d within r (plus rounding
    slack) of rho(x, z).  Points are taken in order of rho(x, z), in blocks
    of at most _PAIR_CHUNK pairs (a single point whose window is larger
    forms its own block).  The pairs come out grouped by point in that
    order, each point's pairs in ball order.
    """
    zs = check_disc_point(np.atleast_1d(np.asarray(zs, dtype=complex)))
    pts = check_disc_point(ball.orbit_points())
    t_max = np.tanh(r / 2.0)
    dz = distance(ball.base, zs)
    # Rounding slack: a computed rho(a, b) = 2 artanh t is off by about
    # |dt| (1 + cosh rho(a, b)), with |dt| a few ulps over
    # |1 - conj(a) b| >= e^-rho(0, a).  rho(x, z), the displacements and
    # the tested rho(p, z) all stay below rho(0, x) + rho(x, z) + r, so
    # 2^-40 (4096 ulps) times e^that covers all three errors.  One bin
    # either side covers the rounding of `bins`, as in OrbitBall.restrict.
    slack = 2.0 ** -40 * np.exp(float(distance(0.0j, ball.base)) + dz + r)
    lo = np.searchsorted(ball.bins, (dz - r - slack) / _DISP_BIN - 1.0, "left")
    hi = np.searchsorted(ball.bins, (dz + r + slack) / _DISP_BIN + 1.0, "right")
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
        pts_w = pts[w0:w1]
        z = zs[order[s:s + n], None]
        t = np.abs((pts_w - z) / (1.0 - np.conj(pts_w) * z))
        rows, cols = np.nonzero(t < t_max)
        iz.append(order[s + rows])
        ib.append(w0 + cols)
        s += n
    return np.concatenate(iz), np.concatenate(ib)


def orbit_counts(group, x, zs, r):
    """Number of orbit points gamma(x) with rho(gamma x, z) < r, per z."""
    if r <= 0:
        raise ValueError("r must be positive")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    reach = float(np.max(distance(x, zs))) + r + 1e-9
    ball = enumerate_ball(group, x, reach)
    iz, _ = orbit_pairs(ball, zs, r)
    return np.bincount(iz, minlength=len(zs))


def orbit_count(group, x, z, r):
    """Scalar version of orbit_counts."""
    return int(orbit_counts(group, x, np.array([z]), r)[0])


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
    relator = _OCTAGON_RELATOR
    return FuchsianGroup(gens, [relator], name="genus2-octagon")


# Length-8 relator of the octagon side pairing, in commutator form; found by
# searching short products of the generators for the identity and frozen
# here.  Verified by FuchsianGroup.relator_residuals in the tests.
_OCTAGON_RELATOR = (1, 4, 7, 2, 5, 8, 3, 6)


def to_config_text(group):
    lines = [f"name = {group.name}"]
    for k, g in enumerate(group.generators):
        lines.append(f"generator.{k} = {float(g.alpha.real)!r} "
                     f"{float(g.alpha.imag)!r} {float(g.beta.real)!r} "
                     f"{float(g.beta.imag)!r}")
    for w in group.relators:
        lines.append("relator = " + " ".join(str(l) for l in w))
    return "\n".join(lines) + "\n"


def from_config_text(text):
    """Parse the plain key-value group format; raises ConfigError with
    line numbers on malformed input."""
    name = ""
    gens = {}
    relators = []
    extra = {}
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
            gens[idx] = (complex(parts[0], parts[1]),
                         complex(parts[2], parts[3]))
        elif key == "relator":
            try:
                relators.append(tuple(int(p) for p in val.split()))
            except ValueError:
                raise ConfigError(f"line {ln}: relator letters must be "
                                  f"signed integers") from None
        else:
            extra[key] = val
    if sorted(gens) != list(range(len(gens))):
        raise ConfigError("generator indices must be 0..n-1 without gaps")
    elements = []
    for k in range(len(gens)):
        a, b = gens[k]
        try:
            elements.append(GroupElement(a, b, (k + 1,)))
        except NonUnitary as exc:
            raise ConfigError(f"generator.{k}: {exc}") from exc
    return FuchsianGroup(elements, relators, name=name), extra


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
    return from_config_text(text)[0]
