import djcalc
from djcalc import bn, dejonq, exact, lls


def test_package_exports_each_module_list_and_the_errors():
    assert len(djcalc.__all__) == len(set(djcalc.__all__))
    modules = set(exact.__all__) | set(dejonq.__all__) | set(bn.__all__) | set(lls.__all__)
    assert set(djcalc.__all__) == modules | {"ContractViolation", "HypothesisViolation", "IntegralityError"}
    for name in djcalc.__all__:
        assert getattr(djcalc, name) is not None
    assert djcalc.fixed_dim_or_error is bn.fixed_dim_or_error
