import pytest

from nonlin_eig.grid import build_domain
from nonlin_eig.plaplace import PLaplaceInstance


@pytest.fixture(scope="module")
def small_grid():
    """The 19x19 interior square, h = 0.1, r = 0.25, p = 3."""
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, 0.25, 3.0)
