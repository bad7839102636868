"""Shared fixtures.

The degree-2 bivariate arena over F_3 is the most expensive fixture
(about four seconds to build on a 2-core box), so it is constructed
once per session through the same cache the check suites use; every
extraction test and the acceptance round trips then share one instance.
"""

import pytest

from flagval.ff import FiniteField


@pytest.fixture(scope="session")
def F2():
    return FiniteField(2)


@pytest.fixture(scope="session")
def F3():
    return FiniteField(3)


@pytest.fixture(scope="session")
def F5():
    return FiniteField(5)


@pytest.fixture(scope="session")
def arena3():
    from flagval.suites import _arena

    return _arena(FiniteField(3), ("x", "y"), 2)


@pytest.fixture(scope="session")
def small_arena3():
    from flagval.reconstruct import Arena

    return Arena(FiniteField(3), ("x", "y"), gen_degree=1)
