from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from zetalab.counting import VarietySpec, parse_variety

FIXTURES = Path(__file__).parent / "fixtures"

# Property tests draw the same examples on every run, and wall-clock
# deadlines (noisy on shared machines) never fail them.
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def int_exactly_when_integral(coeffs) -> bool:
    """Whether each coefficient is an int exactly when it is integral."""
    return all(isinstance(c, int) == (Fraction(c).denominator == 1) for c in coeffs)


def elliptic(a):
    """The Weierstrass curve with invariants a = (a1, a2, a3, a4, a6)."""
    return VarietySpec(kind="elliptic_curve", a_invariants=tuple(a))


def plane_cubic(a):
    """The Weierstrass equation with invariants a, homogenized in P^2."""
    a1, a2, a3, a4, a6 = a
    return parse_variety(
        f"projective 2; vars x,y,z; eq y^2*z + ({a1})*x*y*z + ({a3})*y*z^2"
        f" - x^3 - ({a2})*x^2*z - ({a4})*x*z^2 - ({a6})*z^3"
    )
