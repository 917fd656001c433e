import copy
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclecones
from cyclecones.cones import Cone
from cyclecones.lattice import HalfIntegralMatrix
from cyclecones.numtheory import (
    _Record,
    _sigma,
    bernoulli,
    factorize,
    zeta_negative,
)
from cyclecones.qseries import MillerBasis
from oracles import (
    bernoulli_akiyama_tanigawa,
    divisors,
    moebius,
    sigma,
    square_divisors,
)


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanishing():
    assert all(bernoulli(n) == 0 for n in range(3, 62, 2))


def test_bernoulli_against_akiyama_tanigawa():
    for n in range(41):
        assert bernoulli(n) == bernoulli_akiyama_tanigawa(n)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_negative_examples():
    assert zeta_negative(2) == 0
    assert zeta_negative(1) == Fraction(-1, 12)
    assert zeta_negative(5) == Fraction(-1, 252)


def test_zeta_negative_matches_bernoulli():
    for s in range(1, 61):
        assert zeta_negative(s) == -bernoulli(s + 1) / (s + 1)
    with pytest.raises(ValueError):
        zeta_negative(0)


def test_sigma_examples_and_bruteforce():
    # _sigma(factorize(m), s) is the divisor sum the identity scan reads
    assert _sigma(factorize(1), 5) == 1
    assert _sigma(factorize(6), 1) == 12
    assert _sigma(factorize(2), 5) == 33
    assert type(_sigma(factorize(2), 5)) is int
    for m in range(1, 301):
        for s in (0, 1, 5):
            want = sum(d**s for d in range(1, m + 1) if m % d == 0)
            assert _sigma(factorize(m), s) == want, (s, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4), st.integers(1, 10**4), st.integers(0, 9))
def test_sigma_multiplicative_on_coprime_pairs(a, b, s):
    if math.gcd(a, b) == 1:
        assert _sigma(factorize(a * b), s) == (
            _sigma(factorize(a), s) * _sigma(factorize(b), s)
        )


def test_divisor_sum_oracle_examples_and_bruteforce():
    assert divisors(1) == [1]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert sigma(5, 1) == 1
    assert sigma(1, 6) == 12
    assert sigma(5, 2) == 33
    for m in range(1, 300):
        for s in (0, 1, 5):
            assert sigma(s, m) == sum(d**s for d in range(1, m + 1) if m % d == 0)


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_moebius_divisor_sum():
    # sum_{d | m} mu(d), summed by adding mu(d) at every multiple m of d
    n = 10**4
    totals = [0] * (n + 1)
    for d in range(1, n + 1):
        mu = moebius(d)
        for m in range(d, n + 1, d):
            totals[m] += mu
    assert totals[1:] == [1] + [0] * (n - 1)


def test_square_divisors_examples():
    assert square_divisors(1) == [1]
    assert square_divisors(12) == [1, 2]
    assert square_divisors(36) == [1, 2, 3, 6]


def test_square_divisors_bruteforce():
    # the t whose square is among the divisors of m
    for m in range(1, 10**4 + 1):
        want = [math.isqrt(d) for d in divisors(m) if math.isqrt(d) ** 2 == d]
        assert square_divisors(m) == want


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_factorize_reconstructs(m):
    pairs = factorize(m)
    assert type(pairs) is tuple
    for pair in pairs:
        assert type(pair) is tuple and list(map(type, pair)) == [int, int]
        assert pair[1] >= 1
    assert math.prod(p**e for p, e in pairs) == m
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def test_bernoulli_against_sympy(sympy):
    for n in range(0, 121):
        expected = Fraction(str(sympy.bernoulli(n)))
        if n == 1:  # sympy uses B_1 = +1/2
            expected = -expected
        assert bernoulli(n) == expected, n


def test_sigma_against_sympy(sympy):
    for s in (0, 1, 3, 5, 11, 17):
        for m in range(1, 301):
            want = int(sympy.divisor_sigma(m, s))
            assert _sigma(factorize(m), s) == sigma(s, m) == want, (s, m)


def test_moebius_against_sympy(sympy):
    for t in range(1, 2001):
        assert moebius(t) == int(sympy.mobius(t)), t


def test_factorize_against_sympy(sympy):
    for m in list(range(1, 2001)) + [2**31 - 1, 600851475143, 10**7 + 19]:
        assert dict(factorize(m)) == sympy.factorint(m), m


FROZEN = [
    MillerBasis(6, ((1, -504),)),
    Cone(((2,),)),
    HalfIntegralMatrix(((2, 1), (1, 2))),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_value_classes_are_frozen(value):
    fields = type(value).__slots__
    before = [getattr(value, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, f) for f in fields] == before
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
    assert hash(copy.copy(value)) == hash(value)
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{type(value).__name__}({shown})"


def _record_classes():
    """Every _Record subclass defined in a module of the package."""
    for info in pkgutil.iter_modules(cyclecones.__path__):
        importlib.import_module(f"cyclecones.{info.name}")
    found, todo = [], [_Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("cyclecones."):
                found.append(sub)
    return found


def test_every_record_class_is_checked_frozen():
    checked = {type(v) for v in FROZEN}
    missing = [c.__qualname__ for c in _record_classes() if c not in checked]
    assert not missing


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_record_takes_its_fields_exactly(value):
    cls = type(value)
    fields = [getattr(value, f) for f in cls.__slots__]
    assert cls(*fields) == value
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields[:-1])
