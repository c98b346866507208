"""coring-lab: exact constructive checks for corings built from bimodules."""

__version__ = "0.1.0"

from .fields import GF, QQ, Field, PrimeField, RationalField, field_of_characteristic
from .linalg import QuotientPresentation

__all__ = [
    "GF",
    "QQ",
    "Field",
    "PrimeField",
    "RationalField",
    "field_of_characteristic",
    "QuotientPresentation",
    "__version__",
]
