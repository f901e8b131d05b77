import pytest

from superloop import modrep
from superloop.coeffs import a, b


@pytest.fixture(scope="session")
def fund21():
    return modrep.fundamental(2, 1)


@pytest.fixture(scope="session")
def ev21(fund21):
    return modrep.evaluation_pullback(fund21, a)


@pytest.fixture(scope="session")
def ev21b(fund21):
    return modrep.evaluation_pullback(fund21, b)


@pytest.fixture(scope="session")
def ev12():
    return modrep.evaluation_pullback(modrep.fundamental(1, 2), a)


@pytest.fixture(scope="session")
def ev31():
    return modrep.evaluation_pullback(modrep.fundamental(3, 1), a)


@pytest.fixture(scope="session")
def ev13():
    return modrep.evaluation_pullback(modrep.fundamental(1, 3), a)


@pytest.fixture(scope="session")
def tensor21(ev21, ev21b):
    return modrep.tensor(ev21, ev21b)
