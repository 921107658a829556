"""Exact coefficient fields for the oracle: rationals and prime fields.

A field object carries the arithmetic; elements are plain Python numbers,
which keeps the row reduction fast.  A prime-field element is an int
in ``range(p)``.  A rational is an int whenever it is integral and a
``Fraction`` only when it is genuinely fractional: every operation of
``Rationals`` turns an integral ``Fraction`` back into an int, so the common
small-integer entries never pay for ``Fraction`` arithmetic.  No floating
point exists anywhere in the oracle.
"""
from __future__ import annotations

from fractions import Fraction


def _integral(q):
    """An integral Fraction as an int; anything else unchanged."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


class Rationals:
    name = "Q"
    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return _integral(a + b)

    @staticmethod
    def sub(a, b):
        return _integral(a - b)

    @staticmethod
    def mul(a, b):
        return _integral(a * b)

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 1 or a == -1:  # its own inverse, and almost every pivot is +-1
            return _integral(a)
        return _integral(Fraction(1, a))

    @staticmethod
    def from_fraction(q: Fraction):
        return _integral(Fraction(q))

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, q: Fraction):
        num, den = q.numerator, q.denominator
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} vanishes modulo {self.p}")
        return (num % self.p) * self.inv(den % self.p) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0


QQ = Rationals()


def field_from_spec(spec: str):
    """Parse a field request: ``q`` for rationals, ``fp:<p>`` for a prime field."""
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r}; use 'q' or 'fp:<p>'")
