import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact-arith",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact-arith")


@pytest.fixture(scope="session")
def built_levels():
    """Minimal polynomials for the levels the suites compare against,
    built once per session (the in-process memo also shares them with
    the acceptance module)."""
    from genlambda.minpoly import build_F

    return {n: build_F(n) for n in (3, 4, 5)}
