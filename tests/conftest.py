import numpy as np
import pytest

from discforms.group import FuchsianGroup, preset_genus2_octagon


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
