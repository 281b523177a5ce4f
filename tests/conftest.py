import pytest

from grouplab.catalog import build_catalog
from grouplab.groups import circle_group, cyclic_group, dihedral_group, symmetric_group


@pytest.fixture(scope="session")
def sym3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def sym3_catalog(sym3):
    return build_catalog(sym3)


@pytest.fixture(scope="session")
def zn12():
    return cyclic_group(12)


@pytest.fixture(scope="session")
def zn12_catalog(zn12):
    return build_catalog(zn12)


@pytest.fixture(scope="session")
def dih5():
    return dihedral_group(5)


@pytest.fixture(scope="session")
def circle64():
    return circle_group(64)
