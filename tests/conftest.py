import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def sweep_2x2():
    from mwmlab.balance import sweep_lemmas

    return sweep_lemmas(max_n=2, max_k=2, max_x=3)


@pytest.fixture(scope="session")
def sweep_3x2():
    from mwmlab.balance import sweep_lemmas

    return sweep_lemmas(max_n=3, max_k=2, max_x=2)


# The boxes the sweep covers in well under a second each: about 130 and 45
# times the instances of the two above.
@pytest.fixture(scope="session")
def sweep_4x2():
    from mwmlab.balance import sweep_lemmas

    return sweep_lemmas(max_n=4, max_k=2, max_x=4)


@pytest.fixture(scope="session")
def sweep_3x3():
    from mwmlab.balance import sweep_lemmas

    return sweep_lemmas(max_n=3, max_k=3, max_x=3)
