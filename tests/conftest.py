import numpy as np
import pytest
from hypothesis import settings

from spherecurv import geometry
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
    """Random real band-limited field from normal packed coefficients.

    The draws are those of complex coefficients c_lm with c_l,-m = conj(c_lm)
    (no sign flip: the |m| Legendre factor is shared by both signs of m); for
    m >= 1 the packed cos entry is sqrt(2) Re c_lm and the sin entry
    -sqrt(2) Im c_lm.
    """
    l_hi = grid.l_max if l_hi is None else l_hi
    h = np.zeros((grid.l_max + 1, grid.l_max + 1, 2))
    for l in range(0 if not zero_mean else 1, l_hi + 1):
        h[0, l, 0] = rng.normal()
        for m in range(1, l + 1):
            a = rng.normal() + 1j * rng.normal()
            h[m, l] = np.sqrt(2.0) * a.real, -np.sqrt(2.0) * a.imag
    return grid.synthesize(amp * h.reshape(-1)[grid._flat])


def requested_grids(monkeypatch):
    """(l_max, step) of every grid asked of ``build_grid``, cached or not."""
    keys = []
    cached = geometry._cached_grid
    monkeypatch.setattr(geometry, "_cached_grid", lambda *key: keys.append(key) or cached(*key))
    return keys
