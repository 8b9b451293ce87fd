import math

import mpmath
import numpy as np
import pytest

from discforms.group import (FuchsianGroup, GroupElement, _product, _psu_gap,
                             preset_genus2_octagon)

# The preset's D_0 in closed form, the regular octagon: vertex distance c
# with cosh c = (1 + sqrt 2)^2, so tanh(c/2) = 2^-1/4, at angles
# (2k + 1) pi/8.  The polygon the library derives must equal it.
OCTAGON_D0 = 2.0 ** -0.25 * np.exp(1j * (2 * np.arange(8) + 1) * np.pi / 8)


@pytest.fixture(scope="session")
def octagon():
    return preset_genus2_octagon()


@pytest.fixture(scope="session")
def trivial():
    return FuchsianGroup([], [], name="trivial")


@pytest.fixture
def rng():
    # one fresh generator per test, so a test's draws do not depend on
    # which tests ran before it
    return np.random.default_rng(12345)


def random_disc_points(rng, n, r_max=0.8):
    r = r_max * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def word_product(group, word):
    """The SU(1,1) pair (alpha, beta) of a word in the generators, folded
    one letter at a time through the BFS's own product, group._product; a
    negative letter is the inverse (conj(a), -b) of its generator."""
    a, b = np.array([1.0 + 0.0j]), np.array([0.0j])
    for letter in word:
        g = group.generators[abs(letter) - 1]
        ga, gb = ((g.alpha, g.beta) if letter > 0
                  else (np.conj(g.alpha), -g.beta))
        a, b = _product(a, b, np.array([ga]), np.array([gb]))
    return complex(a[0]), complex(b[0])


def gap_to_identity(a, b):
    """Max-norm distance of the pair (a, b) from +-identity, read from the
    library's gap table, group._psu_gap."""
    return float(_psu_gap(np.array([a]), np.array([b]), np.ones(1),
                          np.zeros(1))[0, 0])


def config_text(group):
    """A group in the config format that from_config_text reads: floats by
    repr, so a file copy holds the generators to the bit."""
    lines = [f"name = {group.name}"]
    for k, g in enumerate(group.generators):
        lines.append(f"generator.{k} = {float(g.alpha.real)!r} "
                     f"{float(g.alpha.imag)!r} {float(g.beta.real)!r} "
                     f"{float(g.beta.imag)!r}")
    for w in group.relators:
        lines.append("relator = " + " ".join(str(l) for l in w))
    return "\n".join(lines) + "\n"


def regular_4g_gon(genus):
    """The genus-g surface group of the regular 4g-gon, opposite sides
    paired: with N = 4g, generator k is (cot(pi/N), sqrt(cot^2(pi/N) - 1)
    e^(2 pi i k/N)), and generator k + 2g is the inverse of generator k.
    At genus 2 these are the preset's generators."""
    n = 4 * genus
    ct = 1.0 / math.tan(math.pi / n)
    gens = [GroupElement(complex(ct), math.sqrt(ct * ct - 1.0)
                         * complex(math.cos(2 * math.pi * k / n),
                                   math.sin(2 * math.pi * k / n)), (k + 1,))
            for k in range(n)]
    return FuchsianGroup(gens, name=f"genus{genus}-{n}-gon")


def write_4g_gon(path, genus):
    """The regular 4g-gon group written to path as a config file."""
    path.write_text(config_text(regular_4g_gon(genus)))
    return path


def bergman_kernel_diag(z):
    """The disc's Bergman kernel on the diagonal, K(z, z) =
    1/(pi (1 - |z|^2)^2), in closed form."""
    return 1.0 / (np.pi * (1.0 - np.abs(z) ** 2) ** 2)


def mp_generator(letter):
    """The preset's generator |letter| in the working mpmath precision,
    inverted when the letter is negative: cosh(d0/2) = 1 + sqrt 2, rotated
    by (k - 1) pi/4."""
    a = 1 + mpmath.sqrt(2)
    b = mpmath.sqrt(2 + 2 * mpmath.sqrt(2)) * mpmath.expjpi(
        mpmath.mpf(abs(letter) - 1) / 4)
    return (a, b) if letter > 0 else (mpmath.conj(a), -b)
