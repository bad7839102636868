"""Finite field arithmetic: fixed tables and algebraic laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagval.errors import InvalidInput, UnsupportedField
from flagval.ff import (
    FiniteField,
    canonical_modulus,
    factorize,
    prime_power_decomposition,
)

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]


def test_construction_is_cached():
    assert FiniteField(9) is FiniteField(9)
    assert FiniteField(3) == FiniteField(3)
    assert FiniteField(3) != FiniteField(9)


@pytest.mark.parametrize("q,p,e", [(2, 2, 1), (8, 2, 3), (9, 3, 2), (49, 7, 2), (5, 5, 1)])
def test_prime_power_shape(q, p, e):
    F = FiniteField(q)
    assert (F.q, F.p, F.e) == (q, p, e)


def test_rejected_orders():
    with pytest.raises(UnsupportedField):
        FiniteField(50)
    with pytest.raises(InvalidInput):
        FiniteField(6)
    with pytest.raises(InvalidInput):
        FiniteField(1)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(49) == {7: 2}
    assert prime_power_decomposition(27) == (3, 3)
    with pytest.raises(InvalidInput):
        prime_power_decomposition(12)


def test_f4_multiplication_table():
    # modulus x^2 + x + 1: with 2 = x, 3 = x + 1
    F = FiniteField(4)
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.mul(3, 3) == 2
    assert F.add(2, 3) == 1
    assert F.add(1, 1) == 0
    assert F.inv(2) == 3


def test_f9_spot_values():
    # modulus x^2 + 1: with 3 = x, x^2 = -1 which is digit code 2
    F = FiniteField(9)
    assert F.mul(3, 3) == 2
    assert F.mul(3, 4) == 5
    assert F.add(3, 3) == 6
    assert F.neg(1) == 2
    assert F.mul(4, F.inv(4)) == 1


def test_check_and_from_int():
    F = FiniteField(9)
    assert F.check(8) == 8
    with pytest.raises(InvalidInput):
        F.check(9)
    with pytest.raises(InvalidInput):
        F.check(-1)
    assert F.from_int(5) == 5  # digit code kept verbatim
    assert F.from_int(12) == 0  # out of range: reduced into the prime field
    assert FiniteField(5).from_int(12) == 2


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive_small(q):
    F = FiniteField(q)
    els = list(F.elements())
    if q > 9:
        els = els[:6] + els[-3:]
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, q - 1) == 1
            assert (q - 1) % F.element_order(a) == 0
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)


@settings(max_examples=60)
@given(st.sampled_from(ORDERS), st.data())
def test_distributivity_and_associativity(q, data):
    F = FiniteField(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))


@pytest.mark.parametrize("q", [4, 7, 9, 25, 49])
def test_multiplicative_generator(q):
    F = FiniteField(q)
    g = F.multiplicative_generator()
    assert F.element_order(g) == q - 1


def test_is_nth_power_against_brute_force():
    F = FiniteField(7)
    for n in (1, 2, 3, 6):
        for a in F.elements():
            brute = any(F.pow(b, n) == a for b in F.elements())
            assert F.is_nth_power(a, n) == brute, (a, n)
    with pytest.raises(InvalidInput):
        F.is_nth_power(2, 0)


def test_negative_exponent():
    F = FiniteField(9)
    for a in F.units():
        assert F.mul(F.pow(a, -2), F.pow(a, 2)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


PRIME_POWERS = [q for q in range(2, 50) if len(factorize(q)) == 1]


def _digit_arithmetic(q):
    """Reference ops on base-p digit vectors, reduced by the canonical modulus."""
    p, e = prime_power_decomposition(q)
    mod = canonical_modulus(p, e)

    def digits(n):
        return [n // p**i % p for i in range(e)]

    def undigits(d):
        return sum(c * p**i for i, c in enumerate(d))

    def mul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for i in range(len(prod) - 1, e - 1, -1):  # t^e = -sum mod[j] t^j
            c, prod[i] = prod[i], 0
            for j in range(e):
                prod[i - e + j] -= c * mod[j]
        return undigits([c % p for c in prod[:e]])

    def sub(a, b):
        return undigits([(x - y) % p for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return undigits([-x % p for x in digits(a)])

    return mul, sub, neg


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_op_tables_match_digit_arithmetic(q):
    F = FiniteField(q)
    mul, sub, neg = _digit_arithmetic(q)
    for a in range(q):
        assert F.neg(a) == neg(a)
        for b in range(q):
            assert F.mul(a, b) == mul(a, b), (a, b)
            assert F.sub(a, b) == sub(a, b), (a, b)
            assert F.add(a, b) == sub(a, neg(b)), (a, b)
        if a:
            assert F.mul(a, F.inv(a)) == 1
