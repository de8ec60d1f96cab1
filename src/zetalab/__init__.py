"""Exact-arithmetic toolkit for zeta functions of varieties over finite fields.

Point counts are produced exactly (by enumeration, or from one count
over F_p for an elliptic curve), turned into zeta functions by exact
power-series arithmetic, split exactly into Frobenius weight factors,
reassembled into even/odd weight-normalized zeta functions, and fed
into Euler products and Dirichlet series over Q.
Every identity or bound that is checkable at desk scale gets a checker.
"""

__version__ = "0.1.0"

from .arith import PrimePower, make_extension_field, primes_up_to
from .counting import PointCounts, VarietySpec, count_points, count_series, parse_variety
from .series import PowerSeries, RationalFunction
from .zeta import WeightDecomposition, WeightFactor, zeta_from_counts, zeta_rational, weight_factorize
from .ncspec import NcSpectrum, nc_spectrum_from_weights, nc_zeta
from .lfun import ArithmeticModel, DirichletSeries, dirichlet_expand, euler_product_value

__all__ = [
    "PrimePower",
    "make_extension_field",
    "primes_up_to",
    "PointCounts",
    "VarietySpec",
    "count_points",
    "count_series",
    "parse_variety",
    "PowerSeries",
    "RationalFunction",
    "WeightDecomposition",
    "WeightFactor",
    "zeta_from_counts",
    "zeta_rational",
    "weight_factorize",
    "NcSpectrum",
    "nc_spectrum_from_weights",
    "nc_zeta",
    "ArithmeticModel",
    "DirichletSeries",
    "dirichlet_expand",
    "euler_product_value",
    "__version__",
]
