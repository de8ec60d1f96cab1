from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

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
