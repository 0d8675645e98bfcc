import pytest

from klschubert.rootsystem import CartanData, RootSystem


@pytest.fixture(scope="session")
def a1():
    return RootSystem(CartanData.type_a(1))


@pytest.fixture(scope="session")
def a2():
    return RootSystem(CartanData.type_a(2))


@pytest.fixture(scope="session")
def a3():
    return RootSystem(CartanData.type_a(3))


@pytest.fixture(scope="session")
def a4():
    return RootSystem(CartanData.type_a(4))
