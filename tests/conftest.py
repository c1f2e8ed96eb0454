import pytest

from nfk.number_field import build_field


@pytest.fixture(scope="session")
def field_q():
    return build_field([0, 1], ell=2, label="Q")


@pytest.fixture(scope="session")
def field_qi():
    return build_field([1, 0, 1], ell=2, label="Q(i)")


@pytest.fixture(scope="session")
def field_qm5():
    return build_field([5, 0, 1], ell=2, label="Q(sqrt(-5))")


@pytest.fixture(scope="session")
def field_qs2():
    return build_field([-2, 0, 1], ell=2, label="Q(sqrt(2))")


@pytest.fixture(scope="session")
def field_cubic9():
    return build_field([-9, -1, 0, 1], ell=2, label="cubic-9")


@pytest.fixture(scope="session")
def field_zeta3():
    return build_field([1, 1, 1], ell=3, label="Q(zeta3)")


@pytest.fixture(scope="session")
def field_q10():
    # real quadratic with h = 2
    return build_field([-10, 0, 1], ell=2, label="Q(sqrt(10))")


@pytest.fixture(scope="session")
def field_rank2():
    # the totally real cubic x^3 - x^2 - 2x + 1: unit rank 2
    return build_field([1, -2, -1, 1], ell=2, label="x^3-x^2-2x+1")


@pytest.fixture(scope="session")
def field_x4_7x2_13():
    # ell = 3 with h = 2 and w = 6 (unit rank 1): the one field here whose
    # Steinitz classes at ell = 3 are not all trivial
    return build_field([13, 0, 7, 0, 1], ell=3, label="x^4+7x^2+13")


@pytest.fixture(scope="session")
def field_x4_53x2_703():
    # ell = 3 with Cl = Z/6 and unit rank 1: the one field here with ell | h
    # for odd ell
    return build_field([703, 0, 53, 0, 1], ell=3, label="x^4+53x^2+703")
