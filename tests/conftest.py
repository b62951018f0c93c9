import pytest

from fibnest import build, verify


@pytest.fixture(scope="session")
def cert3():
    return build(depth=3, n0=5)


@pytest.fixture(scope="session")
def cert1():
    return build(depth=1, n0=5)


@pytest.fixture(scope="session")
def verified3(cert3):
    bundle, verified = verify(cert3)
    assert bundle.passed and verified is not None
    return verified
