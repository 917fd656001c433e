"""Acceptance suite: one test per criterion, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (each test also prints an ACCEPTANCE line, visible with -s).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cyclecones.classes import (
    coordinates,
    eisenstein_identity_scan,
    heegner_class,
    weight_for_signature,
)
from cyclecones.cones import (
    Cone,
    accumulation_cone_model,
    convergence_scan,
    lp_feasible,
    span_dimension,
)
from cyclecones.lattice import (
    HalfIntegralMatrix,
    build_even_unimodular,
    common_component_family,
    gauss_reduce,
    moment_matrix,
    norm_q,
)
from cyclecones.qseries import dim_mk, eisenstein, miller_basis
from oracles import (
    brute_member,
    brute_pointed,
    congruent2,
    delta_e6_coefficients,
    extremal_ray_set,
    heegner_from_primitive,
    is_pointed,
    moebius,
    rand_gl2,
    square_divisors,
    weight_18_deligne_envelope,
    weight_18_prime_distance,
)

SIGNATURES = (10, 18, 26)
CONE_SIGNATURES = (10, 18, 26, 34, 66)


@pytest.fixture(scope="module")
def bases():
    weights = sorted({weight_for_signature(n) for n in CONE_SIGNATURES})
    return {k: miller_basis(k, 201) for k in weights}


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if p > 1
            and all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_criterion_1_eisenstein_coefficient_identity():
    for n in SIGNATURES:
        series = eisenstein(weight_for_signature(n), 201)
        rows = [row for row in eisenstein_identity_scan(n, 200)
                if row[0] == "coefficient"]
        assert [row[1] for row in rows] == list(range(1, 201))
        for row in rows:
            assert row[4], f"mismatch at n={n}: {row}"
            # the scan's q-expansion side is E_k's coefficient
            assert Fraction(row[2]) == series[row[1]], row
    print("ACCEPTANCE 1 (Eisenstein coefficient identity, m<=200): PASS")


def test_criterion_2_primitive_class_evaluation():
    for n in SIGNATURES:
        rows = [row for row in eisenstein_identity_scan(n, 200)
                if row[0] == "primitive"]
        assert [row[1] for row in rows] == list(range(1, 201))
        for row in rows:
            assert row[4], f"mismatch at n={n}: {row}"
            assert row[2] != "0/1", f"vanishing value at n={n}: {row}"
    print("ACCEPTANCE 2 (primitive-class evaluation, nonzero, m<=200): PASS")


def test_criterion_3_moebius_round_trip():
    for m in range(1, 1001):
        # H -> P -> H, fully expanded back to coefficient functionals
        assert heegner_from_primitive(m) == ((m, 1),), m
        # P -> H -> P, expanded formally in primitive symbols
        acc: dict[int, int] = {}
        for t in square_divisors(m):
            mu = moebius(t)
            if not mu:
                continue
            h = m // (t * t)
            for s in square_divisors(h):
                idx = h // (s * s)
                acc[idx] = acc.get(idx, 0) + mu
        acc = {i: c for i, c in acc.items() if c}
        assert acc == {m: 1}, m
    print("ACCEPTANCE 3 (Moebius round trips, m<=1000): PASS")


def test_criterion_4_miller_pivot_property():
    for k in range(4, 62, 2):
        d = dim_mk(k)
        basis = miller_basis(k, 2 * d + 10)
        for i, f in enumerate(basis.rows):
            for j in range(d):
                assert f[j] == (1 if i == j else 0), (k, i, j)
        for m in range(1, d):
            v = coordinates(heegner_class(m), basis)
            assert v == tuple(
                Fraction(1 if i == m else 0) for i in range(d)
            ), (k, m)
    print("ACCEPTANCE 4 (Miller pivot property, k<=60): PASS")


def test_criterion_5_ray_convergence(bases):
    scan = dict(convergence_scan(bases[18], range(1, 201)))

    bound = Fraction(1, 10**6)
    below = all(scan[m] < bound for m in range(100, 201))

    zeros6 = all(
        d == 0 for _, d in convergence_scan(bases[6], range(1, 201))
    )

    # Along primes the distance decays at Deligne's rate, not monotonically:
    # a(p)/p^(17/2) wanders in [-2, 2], so consecutive primes can move up.
    primes = _primes(11, 199)
    a = delta_e6_coefficients(200)
    closed = [
        p for p in primes if scan[p] != weight_18_prime_distance(p, a[p])
    ]
    envelope = [weight_18_deligne_envelope(p) for p in primes]
    above = [p for p, e in zip(primes, envelope) if not scan[p] <= e]
    envelope_decreasing = all(x > y for x, y in zip(envelope, envelope[1:]))
    first_rise = next(
        ((p, q) for p, q in zip(primes, primes[1:]) if scan[p] <= scan[q]),
        None,
    )

    print(
        "ACCEPTANCE 5 (ray convergence at k=18): "
        f"closed-form-on-primes[11,199]={not closed}, "
        f"below-deligne-envelope-on-primes[11,199]={not above}, "
        f"below-1e-6-on-[100,200]={below}, k6-all-zero={zeros6}; "
        f"first non-monotone prime pair {first_rise}"
    )
    assert below, "distance not below 1e-6 somewhere on [100, 200]"
    assert zeros6, "nonzero distance in the one-dimensional space at k=6"
    assert not closed, (
        "scan differs from |a(p)| / (|c| (1 + p^17 - a(p))) at primes "
        f"{closed[:3]}"
    )
    assert envelope_decreasing, "Deligne envelope not decreasing on primes"
    assert not above, (
        f"distance above the Deligne envelope at primes {above[:3]} "
        f"(e.g. d({above[0]}) = {scan[above[0]]})"
    )


def test_criterion_6_accumulation_cone_model(bases):
    for n in CONE_SIGNATURES:
        k = weight_for_signature(n)
        d = dim_mk(k)
        basis = bases[k]
        cone_200 = accumulation_cone_model(basis, 200)
        cone_100 = accumulation_cone_model(basis, 100)
        cone_d = accumulation_cone_model(basis, d)
        assert span_dimension(cone_d) == d, (n, "rank at M = dim")
        assert span_dimension(cone_200) == d, (n, "rank at M = 200")
        assert is_pointed(cone_200), n
        assert extremal_ray_set(cone_100) == extremal_ray_set(cone_200), n
        assert len(cone_200.generators) == 201
    print(
        "ACCEPTANCE 6 (accumulation cone: dim, pointed, stable extremal "
        "rays at M=100 vs 200 for n in {10,18,26,34,66}): PASS"
    )


def test_criterion_7_lattice_suite():
    lat = build_even_unimodular(10)
    rng = random.Random(101)
    for _ in range(1000):
        d = rng.choice([1, 2, 3])
        tup = [
            tuple(rng.randint(-3, 3) for _ in range(lat.dimension))
            for _ in range(d)
        ]
        t = moment_matrix(lat, tup)
        m = t.doubled
        assert all(m[i][j] == m[j][i] for i in range(d) for j in range(d))
        assert all(m[i][i] % 2 == 0 for i in range(d))
        assert [m[i][i] // 2 for i in range(d)] == [norm_q(lat, v) for v in tup]

    seen = 0
    while seen < 500:
        a, c = rng.randint(1, 15), rng.randint(1, 15)
        b = rng.randint(-18, 18)
        if 4 * a * c - b * b <= 0:
            continue
        seen += 1
        t = HalfIntegralMatrix(((2 * a, b), (b, 2 * c)))
        red, u = gauss_reduce(t)
        assert red.determinant() == t.determinant()
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] in (1, -1)
        red2, u2 = gauss_reduce(red)
        assert red2 == red and u2 == ((1, 0), (0, 1))
        for _ in range(2):
            g = rand_gl2(rng)
            rr, _ = gauss_reduce(congruent2(t, g))
            assert rr == red
    print("ACCEPTANCE 7 (moment half-integrality x1000, reduction x500): PASS")


def test_criterion_8_common_component_family():
    lat = build_even_unimodular(10)
    for m in range(1, 11):
        report = common_component_family(lat, m, 10)
        entries = report["entries"]
        dets = [e["det"] for e in entries]
        for e in entries:
            assert e["moment_doubled"] == (
                (2 * e["j"] * e["j"], 0), (0, 2 * m)
            ), (m, e["j"])
            assert e["moment_is_expected_diagonal"]
            assert e["span_matches_base"]
        assert all(x < y for x, y in zip(dets, dets[1:])), m
        assert report["base_norm"] == m
        assert report["dets_strictly_increasing"] is True, m
    print("ACCEPTANCE 8 (common-component family, m<=10, j<=10): PASS")


def lp_member(v, gens):
    """Whether v is a nonnegative combination of gens, decided by
    lp_feasible on the rows sum_j x_j g_j[i] = v[i], x >= 0."""
    eq = [([g[i] for g in gens], v[i]) for i in range(len(v))]
    return lp_feasible(len(gens), eq)[0]


def test_criterion_9_lp_oracle_equivalence():
    checked = 0

    # d = 1: exhaustive over generator multisets of size <= 3 and probes
    pool1 = [(-2,), (-1,), (1,), (2,)]
    for size in (1, 2, 3):
        for gens in itertools.combinations_with_replacement(pool1, size):
            cone = Cone(gens)
            assert is_pointed(cone) == brute_pointed(gens)
            for v in ((-2,), (-1,), (0,), (1,), (2,)):
                assert lp_member(v, gens) == brute_member(v, gens)
                checked += 1

    # d = 2: exhaustive generator sets of size <= 2 over all nonzero
    # vectors with entries in {-2..2}, fixed probe set
    pool2 = [
        v for v in itertools.product(range(-2, 3), repeat=2) if any(v)
    ]
    probes2 = ((1, 0), (-1, 0), (1, 1), (-2, 1), (0, -1), (2, 2))
    for size in (1, 2):
        for gens in itertools.combinations(pool2, size):
            cone = Cone(gens)
            assert is_pointed(cone) == brute_pointed(gens)
            for v in probes2:
                assert lp_member(v, gens) == brute_member(v, gens)
                checked += 1

    # d <= 3 with up to 5 generators: dense seeded sweep
    rng = random.Random(2024)
    for _ in range(500):
        d = rng.choice([2, 3])
        gens = []
        while len(gens) < rng.randint(1, 5):
            g = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(g):
                gens.append(g)
        cone = Cone(gens)
        assert is_pointed(cone) == brute_pointed(gens)
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        assert lp_member(v, gens) == brute_member(v, gens)
        checked += 1
    print(f"ACCEPTANCE 9 (LP vs brute-force oracles, {checked} checks): PASS")
