"""Exception types shared across the calculator."""


class ContractViolation(ValueError):
    """A caller broke a stated precondition (the message names the failed equality)."""


class HypothesisViolation(ValueError):
    """Parameters fall outside the hypotheses of the dimension theorem (rho < 0)."""


class IntegralityError(ArithmeticError):
    """An exact division left a remainder (a count's symmetry factor).

    This would witness a genuine integrality violation of the count formula;
    it is surfaced instead of being truncated away.
    """
