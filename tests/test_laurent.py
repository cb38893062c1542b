import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from hecke_oracle import ONE, Q, V, ZERO, LaurentPoly, lp_monomial

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)


def test_monomial_examples():
    assert lp_monomial(1, 2) == Q
    assert lp_monomial(0, 5) == ZERO
    assert lp_monomial(0, 5).coeffs == {}
    assert lp_monomial(-1, 0) == lp_monomial(-1, 0)
    assert str(lp_monomial(-1, 0)) == "-1"


def test_add_examples():
    assert Q + lp_monomial(-1, 2) == ZERO
    assert V + V == lp_monomial(2, 1)
    assert Q + ONE + lp_monomial(-1, 0) == Q


def test_mul_examples():
    assert V * V == Q
    assert (Q - ONE) * (Q + ONE) == Q * Q - ONE
    assert (Q + V - ONE) * ZERO == ZERO


def test_rendering():
    assert str(ZERO) == "0"
    assert str(Q + lp_monomial(2, 1) - ONE) == "v^2 + 2*v - 1"
    assert str(lp_monomial(-3, -2)) == "-3*v^-2"


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert a - a == ZERO


@given(polys, polys)
def test_canonical_form(a, b):
    for result in (a + b, a * b, a - b, -a):
        assert all(c != 0 for c in result.coeffs.values())


def test_coefficients_are_read_only():
    with pytest.raises(TypeError):
        ONE.coeffs[0] = 5
    with pytest.raises(TypeError):
        del Q.coeffs[2]
    assert str(Q + ONE) == "v^2 + 1"


def test_attributes_cannot_be_set():
    key = Q + ONE
    table = {key: "x"}
    with pytest.raises(AttributeError):
        key.coeffs = {0: 5}
    with pytest.raises(AttributeError):
        del key.coeffs
    assert table[Q + ONE] == "x"
    # copies are rebuilt through the constructor, not by setting attributes
    assert pickle.loads(pickle.dumps(key)) == key == copy.deepcopy(key)
