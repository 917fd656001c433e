"""Cohomology classes of Heegner divisors as coefficient functionals.

A degree-2 class is identified with its preimage in the dual of the
weight-k form space: the functional c_m extracts the m-th q-coefficient,
the Heegner divisor class corresponds to c_m, the Kähler class to -c_0,
and primitive Heegner classes arise by Möbius inversion over square
divisors.  A class sum_m a_m c_m is the plain tuple of its terms
(m, a_m), with int coefficients, and carries no weight: it meets a weight
only in coordinates, which checks its terms against a Miller basis and
returns its coordinates in the dual basis as a tuple of ints.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .numtheory import (
    _divisor_sums,
    _eisenstein_scale,
    _ints,
    _sigma,
    factorize,
)

__all__ = [
    "heegner_class",
    "omega_class",
    "primitive_heegner_class",
    "coordinates",
    "eisenstein_identity_scan",
    "weight_for_signature",
]


def weight_for_signature(n: int) -> int:
    """The form weight 1 + n/2 attached to signature (n, 2); must be even >= 4."""
    if n % 2 != 0 or (1 + n // 2) % 2 != 0 or 1 + n // 2 < 4:
        raise ValueError(
            f"signature parameter n={n} does not give an even weight >= 4"
        )
    return 1 + n // 2


def heegner_class(m: int) -> tuple[tuple[int, int], ...]:
    """Class of the m-th Heegner divisor: the single functional c_m."""
    if m < 1:
        raise ValueError(f"Heegner index must be >= 1, got {m}")
    return ((m, 1),)


def omega_class() -> tuple[tuple[int, int], ...]:
    """Class of the Kähler form: -c_0."""
    return ((0, -1),)


def primitive_heegner_class(m: int) -> tuple[tuple[int, int], ...]:
    """Primitive Heegner class P_m = sum over t^2 | m of mu(t) c_{m/t^2},
    its terms sorted by index."""
    if m < 1:
        raise ValueError(f"Heegner index must be >= 1, got {m}")
    return tuple(sorted(_primitive_terms(m, factorize(m))))


def _primitive_terms(m: int, pairs) -> list[tuple[int, int]]:
    """The pairs (m/t^2, mu(t)) of P_m with mu(t) != 0, m factored as
    pairs.

    Those t are the squarefree products of primes p with p^2 | m, so each
    such prime doubles the list: t keeps or takes p, and mu flips sign.
    """
    terms = [(m, 1)]
    for p, e in pairs:
        if e > 1:
            terms += [(i // (p * p), -mu) for i, mu in terms]
    return terms


def coordinates(terms, basis) -> tuple[int, ...]:
    """The coordinates of the class sum_m a_m c_m, given as its terms
    (m, a_m), in the basis dual to the Miller basis (a qseries.MillerBasis):
    coordinate i is the class applied to the i-th Miller row.

    Every index and coefficient is checked by _ints, so anything but an
    int raises TypeError, and an index outside 0 .. precision - 1 raises
    ValueError; repeated indices add up.
    """
    terms = tuple(terms)
    _ints(x for m, a in terms for x in (m, a))
    for m, _ in terms:
        if not 0 <= m < basis.precision:
            raise ValueError(
                f"index {m} is outside the basis precision {basis.precision}"
            )
    return tuple(sum(a * f[m] for m, a in terms) for f in basis.rows)


def _identity_sides(m: int, s: int, pairs, coeffs):
    """(q-expansion side, closed-form side) of the coefficient and the
    primitive check at m, m factored as pairs and s = n/2, before scaling:
    coeffs[m] against sigma_s(m), and sum_{t^2 | m} mu(t) coeffs[m/t^2]
    against the integer prod_{p^e || m} p^(s(e-1)) (p^s + 1), which is
    m^s prod_{p | m} (1 + p^-s).  For coeffs[i] = sigma_{k-1}(i) both
    sides take one scale: F = -2k/B_k, E_k's, is 2/zeta(-s), the closed
    forms', as s = k - 1.
    """
    euler = 1
    for p, e in pairs:
        q = p**s
        euler *= q ** (e - 1) * (q + 1)
    primitive = sum(mu * coeffs[i] for i, mu in _primitive_terms(m, pairs))
    return (coeffs[m], _sigma(pairs, s)), (primitive, euler)


def eisenstein_identity_scan(
    n: int, max_m: int
) -> Iterator[tuple[str, int, str, str, bool]]:
    """Both Eisenstein identity checks for 1 <= m <= max_m as an iterator
    over rows (check, m, lhs, rhs, equal), coefficient before primitive at
    each m.  The arguments are checked, and the divisor sums and the
    scale computed, before it returns; each row is made when asked for.

    Each side is one scale F = -2k/B_k = 2/zeta(1-k) times an int (see
    _identity_sides), so F a == F b is decided as a == b.  F comes from
    bernoulli(k), so a wrong B_k passes the scan;
    test_bernoulli_against_akiyama_tanigawa, test_bernoulli_against_sympy
    and test_eisenstein_matches_brute_force_divisor_sums catch it.  F a is
    written p/q in lowest terms by one gcd(a, F.den), as gcd(F.num, F.den)
    = 1, and F b likewise.  Equal sides in lowest terms are the same
    string, so an equal row's rhs is its lhs.  No Fraction is built per m,
    and each m is factored once.
    """
    k = weight_for_signature(n)
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    sums = _divisor_sums(k - 1, max_m + 1)
    return _identity_rows(n // 2, max_m, sums, _eisenstein_scale(k))


def _identity_rows(s, max_m, sums, scale):
    num, den = scale.numerator, scale.denominator
    for m in range(1, max_m + 1):
        sides = _identity_sides(m, s, factorize(m), sums)
        for check, (a, b) in zip(("coefficient", "primitive"), sides):
            ga = gcd(a, den)
            lhs = f"{num * a // ga}/{den // ga}"
            if a == b:
                yield check, m, lhs, lhs, True
            else:
                gb = gcd(b, den)
                yield check, m, lhs, f"{num * b // gb}/{den // gb}", False
