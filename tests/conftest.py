import pytest

from rotagrid import (k4_c2_instance, mcdiarmid_instance, oxley_j_instance,
                      uniform_matroid)


@pytest.fixture(scope="session")
def k4():
    return k4_c2_instance().instance.matroid


@pytest.fixture(scope="session")
def u24():
    return uniform_matroid(2, 4)


@pytest.fixture(scope="session")
def u39():
    return uniform_matroid(3, 9, name="u39")


@pytest.fixture(scope="session")
def mcd():
    return mcdiarmid_instance().instance.matroid


@pytest.fixture(scope="session")
def oxley_j():
    return oxley_j_instance().instance.matroid
