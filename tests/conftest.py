import pytest
import mpmath
from hypothesis import settings

# deterministic, deadline-free property runs with a bounded example count
settings.register_profile("shintani", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("shintani")


def pytest_configure(config):
    mpmath.mp.dps = 30
    config.addinivalue_line("markers", "slow: long-running direct quadrature gates")


def pytest_addoption(parser):
    parser.addoption("--skip-slow", action="store_true", default=False,
                     help="skip the slow direct-lift quadrature gate")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--skip-slow"):
        marker = pytest.mark.skip(reason="--skip-slow")
        for item in items:
            if "slow" in item.keywords:
                item.add_marker(marker)
