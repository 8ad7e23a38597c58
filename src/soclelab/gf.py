"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are integer codes in [0, q).  The code of an element is its
coefficient vector (c_0, ..., c_{e-1}), little-endian in the polynomial
variable, packed in base p: code = sum c_i * p^i.  This makes every element
canonical, and enumeration is simply 0, 1, ..., q-1 (code order; for e = 1
this is the usual residue order, for e > 1 it is lexicographic on the
coefficient vector read from the highest-degree digit down).

Fields bigger than a configured cap (default q <= 9) are rejected: every
search in this package enumerates projective points or whole element sets,
and the cap keeps those loops at desk scale.

Arithmetic is table-driven.  Each Field holds its operation tables as the
plain attribute `tables`, shared by equal fields.  Scalar cost matters: the
whole-ring scans run tens of millions of operations, so the hot kernels in
`exactla` and `algebra` index table rows directly (one `mul` row per pivot
or factor); the methods are the reference their tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .errors import InputError, decoding, json_int

DEFAULT_MAX_Q = 9


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Multiply coefficient vectors mod p and reduce by the monic modulus."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^e = -(modulus[:-1])
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * modulus[i]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return tuple(out)


def _poly_is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial-division irreducibility test; fine for the tiny degrees in scope."""
    e = len(modulus) - 1
    if e < 1 or modulus[-1] != 1:
        return False
    if e == 1:
        return True
    # any factorization has a factor of degree <= e // 2; enumerate monic ones
    for d in range(1, e // 2 + 1):
        for code in range(p**d):
            divisor = _decode(code, p, d) + (1,)
            if _poly_divides(divisor, modulus, p):
                return False
    return True


def _poly_divides(divisor: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    rem = list(poly)
    dd = len(divisor) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            for i in range(dd + 1):
                rem[k - dd + i] = (rem[k - dd + i] - c * divisor[i]) % p
    return not any(rem)


def _decode(code: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return tuple(out)


def _encode(coeffs, p: int) -> int:
    code = 0
    for c in reversed(tuple(coeffs)):
        code = code * p + (c % p)
    return code


def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest (in code order) monic irreducible of degree e over F_p."""
    for code in range(p**e):
        candidate = _decode(code, p, e) + (1,)
        if _poly_is_irreducible(candidate, p):
            return candidate
    raise InputError(f"no irreducible polynomial of degree {e} over F_{p}")  # unreachable


@dataclass(frozen=True)
class Field:
    """The finite field F_q with q = p^e elements.

    Immutable and hashable; all arithmetic goes through the precomputed
    `tables`, an attribute set once at construction and left out of
    equality, hashing and repr.
    """

    p: int
    e: int
    modulus: tuple[int, ...]  # monic, length e+1; ((0, 1) means plain F_p)
    q: int = dc_field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.p**self.e)
        object.__setattr__(self, "tables", _field_tables(self.p, self.e, self.modulus))

    @property
    def _tables(self) -> "_Tables":
        """The same object as `tables` (a read-only hook for instrumentation)."""
        return self.tables

    # -- arithmetic on element codes --------------------------------------
    def add(self, a: int, b: int) -> int:
        return self.tables.add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.tables.sub[a][b]

    def neg(self, a: int) -> int:
        return self.tables.neg[a]

    def mul(self, a: int, b: int) -> int:
        return self.tables.mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InputError("inversion of zero")
        return self.tables.inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        result = 1
        for _ in range(n):
            result = self.mul(result, a)
        return result

    def frobenius(self, a: int) -> int:
        """The p-power map a -> a^p (a field automorphism fixing F_p)."""
        return self.pow(a, self.p)

    # -- enumeration and representation ------------------------------------
    def elements(self) -> range:
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        return _decode(a, self.p, self.e)

    def from_coeffs(self, coeffs) -> int:
        return _encode(coeffs, self.p)

    # -- JSON ---------------------------------------------------------------
    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus[:-1]) if self.e > 1 else []}

    @staticmethod
    def from_json(data: dict) -> "Field":
        with decoding("field", data):
            p, e = json_int(data, "p"), json_int(data, "e")
            coeffs = data.get("modulus") or []
            modulus = [json_int(coeffs, k) for k in range(len(coeffs))]
            if any(not 0 <= c < p for c in modulus):
                raise InputError(f"modulus coefficients must lie in 0..{p - 1}, got {modulus}")
        return field_make(p, e, modulus + [1] if modulus else None)

    def element_to_json(self, a: int):
        """An element as JSON: its code over F_p, else its coefficient list."""
        return a if self.e == 1 else list(self.coeffs(a))

    def element_from_json(self, raw, what: str = "field element") -> int:
        """A code in 0..q-1, or a list of at most e coefficients in 0..p-1;
        nothing is reduced, and anything else is an InputError naming what."""
        if type(raw) is int and 0 <= raw < self.q:
            return raw
        if isinstance(raw, list) and len(raw) <= self.e and all(type(c) is int and 0 <= c < self.p for c in raw):
            return _encode(raw, self.p)
        raise InputError(f"{what} out of field range: {raw!r} is neither a code in 0..{self.q - 1} "
                         f"nor at most {self.e} coefficients in 0..{self.p - 1}")

    def __repr__(self):
        return f"F{self.q}" if self.e == 1 else f"F{self.q}(p={self.p},e={self.e})"


class _Tables:
    """Operation tables on element codes: add[a][b], sub[a][b], neg[a],
    mul[a][b], inv[a] (inv[0] is 0 and never read through Field.inv)."""

    __slots__ = ("add", "sub", "neg", "mul", "inv")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        q = p**e
        coeffs = [_decode(c, p, e) for c in range(q)]
        self.add = [
            [_encode([(x + y) % p for x, y in zip(coeffs[a], coeffs[b])], p) for b in range(q)]
            for a in range(q)
        ]
        self.neg = [_encode([(-x) % p for x in coeffs[a]], p) for a in range(q)]
        self.sub = [[self.add[a][self.neg[b]] for b in range(q)] for a in range(q)]
        self.mul = [
            [_encode(_poly_mul_mod(coeffs[a], coeffs[b], modulus, p), p) for b in range(q)]
            for a in range(q)
        ]
        self.inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    self.inv[a] = b
                    break


@lru_cache(maxsize=None)
def _field_tables(p: int, e: int, modulus: tuple[int, ...]) -> _Tables:
    return _Tables(p, e, modulus)


def field_make(p: int, e: int = 1, modulus=None, max_q: int = DEFAULT_MAX_Q) -> Field:
    """Construct F_{p^e}, finding a default irreducible modulus when needed.

    Rejects non-prime p, reducible moduli, and q beyond the configured cap.
    """
    return _field_make(int(p), int(e), None if modulus is None else tuple(modulus), int(max_q))


@lru_cache(maxsize=None)
def _field_make(p: int, e: int, modulus, max_q: int) -> Field:
    # the bound comes before is_prime(p) and p**e, which never end for a huge p or e
    if p > max_q:
        raise InputError(f"characteristic {p} exceeds the configured field bound {max_q}")
    if not is_prime(p):
        raise InputError(f"characteristic {p} is not prime")
    if e < 1:
        raise InputError(f"extension degree must be >= 1, got {e}")
    if e > max_q:  # then p^e >= 2^e > max_q
        raise InputError(f"q = {p}^{e} exceeds the configured field bound {max_q}")
    q = p**e
    if q > max_q:
        raise InputError(f"q = {q} exceeds the configured field bound {max_q}")
    if e == 1:
        mod = (0, 1)
        if modulus is not None and tuple(int(c) % p for c in modulus) not in ((0, 1),):
            raise InputError("a modulus may only be supplied for extension fields")
    elif modulus is None:
        mod = _default_modulus(p, e)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise InputError(f"modulus must be monic of degree {e}")
        if not _poly_is_irreducible(mod, p):
            raise InputError(f"supplied modulus {list(mod)} is reducible over F_{p}")
    return Field(p, e, mod)


_ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def field_of_order(q: int) -> Field:
    """F_q with its default modulus, for a prime power q up to DEFAULT_MAX_Q."""
    if q not in _ORDERS:
        raise InputError(f"unsupported field size {q}")
    return field_make(*_ORDERS[q])
