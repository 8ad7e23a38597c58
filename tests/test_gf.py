import itertools
import pickle

import pytest

from soclelab import gf
from soclelab.errors import InputError
from soclelab.gf import Field, field_make, field_of_order, is_prime, _poly_is_irreducible, _poly_mul_mod

ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,e", ALL_Q)
def test_field_axioms_full_enumeration(p, e):
    f = field_make(p, e)
    elements = list(f.elements())
    assert len(elements) == p**e
    assert len(set(elements)) == p**e
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(elements, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elements, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_prime_field_basics():
    f2 = field_make(2)
    assert list(f2.elements()) == [0, 1]
    assert f2.add(1, 1) == 0  # characteristic 2
    f3 = field_make(3)
    assert len(list(f3.elements())) == 3
    assert f3.inv(2) == 2  # 2*2 = 4 = 1 mod 3


def test_f4_default_modulus_is_the_unique_irreducible_quadratic():
    # oracle: scan all monic quadratics over F_2 for irreducibility
    irreducible = [
        (c0, c1, 1)
        for c0 in (0, 1)
        for c1 in (0, 1)
        if _poly_is_irreducible((c0, c1, 1), 2)
    ]
    assert irreducible == [(1, 1, 1)]  # x^2 + x + 1
    f4 = field_make(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert len(list(f4.elements())) == 4


def test_f4_square_of_generator():
    # x * x reduces to x + 1 modulo x^2 + x + 1; codes: x = 2, x + 1 = 3
    f4 = field_make(2, 2)
    assert f4.mul(2, 2) == 3
    assert f4.coeffs(3) == (1, 1)


def test_frobenius_is_field_automorphism():
    f9 = field_make(3, 2)
    for a in f9.elements():
        for b in f9.elements():
            assert f9.frobenius(f9.add(a, b)) == f9.add(f9.frobenius(a), f9.frobenius(b))
            assert f9.frobenius(f9.mul(a, b)) == f9.mul(f9.frobenius(a), f9.frobenius(b))
    # order 2 over the prime field
    for a in f9.elements():
        assert f9.frobenius(f9.frobenius(a)) == a


def test_construction_errors():
    with pytest.raises(InputError):
        field_make(4)  # not prime
    with pytest.raises(InputError):
        field_make(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(InputError):
        field_make(2, 4)  # q = 16 over the default bound
    f3 = field_make(3)
    with pytest.raises(InputError):
        f3.inv(0)


def test_bound_is_checked_before_primality_and_the_power(monkeypatch):
    # a huge p must not reach trial division, nor a huge e the power p**e
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(gf, "is_prime", no_trial_division)
    with pytest.raises(InputError, match=r"^characteristic 2305843009213693951 exceeds the configured field bound 9$"):
        field_make(2**61 - 1)
    monkeypatch.undo()
    for e in (2**20, 2**70):
        with pytest.raises(InputError, match=rf"^q = 2\^{e} exceeds the configured field bound 9$"):
            field_make(2, e)
    # below both new checks the messages are the ones they always were
    with pytest.raises(InputError, match=r"^characteristic 4 is not prime$"):
        field_make(4, 2**70)
    with pytest.raises(InputError, match=r"^q = 512 exceeds the configured field bound 9$"):
        field_make(2, 9)


def test_bound_is_configurable():
    f16 = field_make(2, 4, max_q=16)
    assert len(list(f16.elements())) == 16
    for a in range(1, 16):
        assert f16.mul(a, f16.inv(a)) == 1


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_json_round_trip():
    for p, e in ALL_Q:
        f = field_make(p, e)
        again = Field.from_json(f.to_json())
        assert again == f


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_element_json_codec_reduces_nothing(p, e):
    field = field_make(p, e)
    for a in field.elements():
        assert field.element_from_json(field.element_to_json(a)) == a
        assert field.element_from_json(a) == a  # a code is read over every field
    assert field.element_to_json(field.q - 1) == (field.q - 1 if e == 1 else [p - 1] * e)
    assert field.element_from_json([1]) == 1 and field.element_from_json([]) == 0
    for bad in (-1, field.q, True, 1.0, "1", None, [0] * e + [1], [p], [-1], [0.0]):
        with pytest.raises(InputError, match="matrix entry out of field range"):
            field.element_from_json(bad, "matrix entry")


def test_field_json_modulus_coefficients_must_be_integers():
    # int(c) would read [1.9, "1"] as [1, 1], that is F_4
    for modulus, message in (([1.9, "1"], "entry 0 must be an integer, got 1.9"),
                             ([1, "1"], "entry 1 must be an integer, got '1'"),
                             ([True, 1], "entry 0 must be an integer, got True")):
        with pytest.raises(InputError, match=message):
            Field.from_json({"p": 2, "e": 2, "modulus": modulus})
    assert Field.from_json({"p": 2, "e": 2, "modulus": [1, 1]}) == field_make(2, 2)


def test_field_json_modulus_coefficients_must_lie_in_the_prime_field():
    # field_make reduces mod p, so [3, 3] and [-1, 1] would both read as x^2 + x + 1
    for modulus in ([3, 3], [-1, 1], [1, 2]):
        with pytest.raises(InputError, match=r"modulus coefficients must lie in 0\.\.1"):
            Field.from_json({"p": 2, "e": 2, "modulus": modulus})
    assert Field.from_json({"p": 3, "e": 2, "modulus": [2, 2]}) == field_make(3, 2, [2, 2, 1])


@pytest.mark.parametrize("p,e", ALL_Q)
def test_tables_agree_with_the_methods(p, e):
    # the kernels index `tables` directly; the methods and coefficient-vector
    # arithmetic are the oracle
    f = field_make(p, e)
    t = f.tables
    assert f._tables is t
    assert Field(f.p, f.e, f.modulus).tables is t  # shared, built once per field
    for a, b in itertools.product(f.elements(), repeat=2):
        ca, cb = f.coeffs(a), f.coeffs(b)
        assert t.add[a][b] == f.add(a, b) == f.from_coeffs([x + y for x, y in zip(ca, cb)])
        assert t.sub[a][b] == f.sub(a, b) == f.add(a, f.neg(b)) == f.from_coeffs([x - y for x, y in zip(ca, cb)])
        assert t.mul[a][b] == f.mul(a, b) == f.from_coeffs(_poly_mul_mod(ca, cb, f.modulus, p))
    for a in f.elements():
        assert t.neg[a] == f.neg(a)
        if a:
            assert t.inv[a] == f.inv(a) and f.mul(a, t.inv[a]) == 1


@pytest.mark.parametrize("p,e", ALL_Q)
def test_pickle_round_trip(p, e):
    f = field_make(p, e)
    again = pickle.loads(pickle.dumps(f))
    assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
    for name in ("add", "sub", "neg", "mul", "inv"):
        assert getattr(again.tables, name) == getattr(f.tables, name)


def test_field_of_order_covers_every_supported_q():
    for p, e in ALL_Q:
        assert field_of_order(p**e) == field_make(p, e)
    for q in (-1, 0, 1, 6, 10, 16):
        with pytest.raises(InputError, match=f"unsupported field size {q}"):
            field_of_order(q)
