import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from garside import (braid_germ, build, free_abelian_germ, germ_from_spec,
                     wreath_example_germ)


@pytest.fixture(scope="session")
def wreath():
    return wreath_example_germ()


@pytest.fixture(scope="session")
def wreath_zs(wreath):
    return build(wreath, [wreath.simple("a"), wreath.simple("b")])


@pytest.fixture(scope="session")
def b3():
    return braid_germ(3)


@pytest.fixture(scope="session")
def b4():
    return braid_germ(4)


@pytest.fixture(scope="session")
def b5():
    return braid_germ(5)


@pytest.fixture(scope="session")
def ab2():
    return free_abelian_germ(2)


@pytest.fixture(scope="session")
def ab3():
    return free_abelian_germ(3)


@pytest.fixture(scope="session")
def prod_b4a4():
    # 384 simples: above the size of any other germ in these tests
    return germ_from_spec("prod:braid:4,abelian:4")
