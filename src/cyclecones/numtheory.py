"""Exact arithmetic functions: Bernoulli numbers, zeta values at negative
integers, factorization by trial division, divisor sums, and the scale
-2k/B_k of the Eisenstein series E_k.

Everything returns exact values (``int`` or ``fractions.Fraction``); no
floating point is used anywhere.  ``_ints`` is the package's one entry
check: every vector the class, cone, lattice and linear-algebra layers
take is a tuple of ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import attrgetter

__all__ = [
    "bernoulli",
    "zeta_negative",
    "factorize",
]


class _Record:
    """Base of the package's value classes.

    A subclass lists its fields in ``__slots__``; the constructor takes
    them positionally in that order, and a subclass that checks or
    normalizes its input ends its ``__init__`` in ``super().__init__``.
    Afterwards assigning to or deleting a field raises ``AttributeError``.
    ``==``, ``hash()`` and ``repr`` see every field.  ``copy`` and
    ``pickle`` rebuild an instance through ``__init__``, since its fields
    cannot be assigned.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # an attrgetter is not a descriptor, so it is called as
        # self._key(obj); with one field it returns the field itself
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(fields)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


def _ints(values) -> tuple[int, ...]:
    """The values as a tuple of ints.  A value whose type is not int (a
    Fraction, a bool, a float, a Decimal, a str) raises TypeError, so
    every vector that enters a decision holds ints only."""
    values = tuple(values)
    for c in values:
        if type(c) is not int:
            raise TypeError(f"{c!r} is not an int")
    return values


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Factor m >= 1 by trial division into (prime, exponent) pairs, the
    primes strictly increasing and the exponents >= 1; 1 gives ().

    Intended for desk scale (m up to about 10**7); larger inputs work but
    get slow, and there is deliberately no probabilistic fallback.
    """
    if m < 1:
        raise ValueError(f"factorize requires m >= 1, got {m}")
    pairs = []
    for p in _trial_divisors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            pairs.append((p, e))
        if m == 1:
            break
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def _sigma(pairs, s: int) -> int:
    """Sum of the s-th powers of the divisors of the number factored as
    pairs, by the multiplicative formula prod_p (p^(s(e+1)) - 1) / (p^s - 1)."""
    total = 1
    for p, e in pairs:
        if s == 0:
            total *= e + 1
        else:
            q = p**s
            total *= (q ** (e + 1) - 1) // (q - 1)
    return total


def _divisor_sums(s: int, precision: int) -> list[int]:
    """[0, sigma_s(1), ..., sigma_s(precision - 1)] by a sieve: d^s is added
    at every multiple of every d, and no m is factorized."""
    sums = [0] * precision
    for d in range(1, precision):
        power = d**s
        sums[d::d] = [x + power for x in sums[d::d]]
    return sums


def _trial_divisors(m):
    yield 2
    yield 3
    p = 5
    while p * p <= m:
        yield p
        yield p + 2
        p += 6


# Bernoulli cache: _bern[n] = B_n, grown on demand up to the largest n asked
_bern: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2.

    Computed from the defining recurrence sum_{j<=n} C(n+1, j) B_j = 0.
    """
    if n < 0:
        raise ValueError(f"bernoulli requires n >= 0, got {n}")
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    while len(_bern) <= n:
        k = len(_bern)
        acc = sum(comb(k + 1, j) * _bern[j] for j in range(k))
        _bern.append(Fraction(-acc, k + 1))
    return _bern[n]


def zeta_negative(s: int) -> Fraction:
    """zeta(-s) = -B_{s+1}/(s+1) for integer s >= 1."""
    if s < 1:
        raise ValueError(f"zeta_negative requires s >= 1, got {s}")
    return -bernoulli(s + 1) / (s + 1)


def _eisenstein_scale(k: int) -> Fraction:
    """The factor -2k/B_k of E_k = 1 + (-2k/B_k) sum_m sigma_{k-1}(m) q^m."""
    if k % 2 == 1 or k < 4:
        raise ValueError(f"Eisenstein series needs even k >= 4, got {k}")
    return Fraction(-2 * k) / bernoulli(k)
