from fractions import Fraction

import pytest

from sepkit import DrivingSequence, RationalParam, example_point, example_template


@pytest.fixture(scope="session")
def ex1_template():
    return example_template(1)


@pytest.fixture(scope="session")
def ex2_template():
    return example_template(2)


@pytest.fixture(scope="session")
def ex1_sys(ex1_template):
    return ex1_template.system


@pytest.fixture(scope="session")
def ex2_sys(ex2_template):
    return ex2_template.system


@pytest.fixture(scope="session")
def ex1_pt():
    # session-scoped so the refinement chain and held window are shared
    return example_point(1)


@pytest.fixture(scope="session")
def ex2_pt():
    return example_point(2)


@pytest.fixture(scope="session")
def eighth_pt():
    return RationalParam(Fraction(1, 8))


@pytest.fixture(scope="session")
def tm():
    return DrivingSequence.thue_morse()
