import pytest

from fibnest import build


@pytest.fixture(scope="session")
def cert3():
    return build(depth=3, n0=5)


@pytest.fixture(scope="session")
def cert1():
    return build(depth=1, n0=5)
