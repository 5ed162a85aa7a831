import numpy as np
import pytest
from hypothesis import settings

from spherecurv.geometry import build_grid

# every property test draws the same examples on every run, with no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="session")
def grid24():
    return build_grid(24)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(48)


def random_real_field(grid, rng, l_hi=None, amp=1.0, zero_mean=True):
    """Random real band-limited field via Hermitian-symmetric coefficients.

    In this basis real fields satisfy c[l,-m] = conj(c[l,m]) (no sign flip:
    the |m| Legendre factor is shared by both signs of m).
    """
    l_hi = grid.l_max if l_hi is None else l_hi
    c = np.zeros((grid.l_max + 1, 2 * grid.l_max + 1), dtype=complex)
    for l in range(0 if not zero_mean else 1, l_hi + 1):
        c[l, grid.l_max] = rng.normal()
        for m in range(1, l + 1):
            a = rng.normal() + 1j * rng.normal()
            c[l, grid.l_max + m] = a
            c[l, grid.l_max - m] = np.conj(a)
    vals = grid.synthesize(c * amp)
    return vals.real


def random_complex_field(grid, rng, l_hi=None):
    l_hi = grid.l_max if l_hi is None else l_hi
    c = np.zeros((grid.l_max + 1, 2 * grid.l_max + 1), dtype=complex)
    for l in range(l_hi + 1):
        for m in range(-l, l + 1):
            c[l, grid.l_max + m] = rng.normal() + 1j * rng.normal()
    return grid.synthesize(c)
