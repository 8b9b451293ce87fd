import numpy as np
import pytest

from discforms.group import (FuchsianGroup, _product, _psu_gap,
                             preset_genus2_octagon)


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


def bergman_kernel_diag(z):
    """The disc's Bergman kernel on the diagonal, K(z, z) =
    1/(pi (1 - |z|^2)^2), in closed form."""
    return 1.0 / (np.pi * (1.0 - np.abs(z) ** 2) ** 2)
