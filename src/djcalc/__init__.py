"""Exact-arithmetic calculator for contact-divisor (de Jonquieres) counts and
Brill-Noether dimension theory of linear series on algebraic curves."""

from . import bn, dejonq, exact, lls
from .bn import *  # noqa: F403
from .dejonq import *  # noqa: F403
from .errors import ContractViolation, HypothesisViolation, IntegralityError
from .exact import *  # noqa: F403
from .lls import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *exact.__all__, *dejonq.__all__, *bn.__all__, *lls.__all__,
    "ContractViolation", "HypothesisViolation", "IntegralityError",
]
