import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from cyclecones import classes, qseries
from cyclecones.classes import (
    coordinates,
    eisenstein_identity_scan,
    heegner_class,
    omega_class,
    primitive_heegner_class,
    weight_for_signature,
)
from cyclecones.cones import Cone, lp_feasible, ray_distance
from cyclecones.lattice import (
    HalfIntegralMatrix,
    build_even_unimodular,
    inner,
    is_primitive,
    moment_matrix,
    norm_q,
)
from cyclecones.linalg import rank
from cyclecones.numtheory import zeta_negative
from cyclecones.qseries import MillerBasis, dim_mk, eisenstein, miller_basis
from oracles import (
    evaluate,
    fraction_identity_scan,
    heegner_from_primitive,
    moebius_primitive_class,
    sigma,
)


def test_heegner_and_omega():
    assert heegner_class(5) == ((5, 1),)
    assert heegner_class(1) == ((1, 1),)
    assert omega_class() == ((0, -1),)
    with pytest.raises(ValueError):
        heegner_class(0)


def test_heegner_evaluation_on_e6():
    # two independent routes: q-expansion and 2 sigma / zeta closed form
    value = evaluate(heegner_class(5), eisenstein(6, 6))
    assert value == -504 * sigma(5, 5) == -1575504
    assert value == 2 * sigma(5, 5) / zeta_negative(5)


def test_primitive_class_examples():
    for m in (1, 2, 3, 5, 6, 30):  # squarefree: P_m = H_m
        assert primitive_heegner_class(m) == ((m, 1),)
    # terms sorted by index
    assert primitive_heegner_class(4) == ((1, -1), (4, 1))
    assert primitive_heegner_class(36) == ((1, 1), (4, -1), (9, -1), (36, 1))
    with pytest.raises(ValueError):
        primitive_heegner_class(0)


def test_heegner_from_primitive_cancellation():
    assert heegner_from_primitive(1) == ((1, 1),)
    assert heegner_from_primitive(4) == ((4, 1),)
    for p in (2, 3, 5, 7):
        assert heegner_from_primitive(p * p) == ((p * p, 1),)


def test_moebius_round_trip():
    for m in range(1, 1001):
        assert heegner_from_primitive(m) == ((m, 1),)


def test_coordinates_unit_vectors():
    for k in range(4, 62, 2):
        d = dim_mk(k)
        basis = miller_basis(k, 2 * d + 2)
        for m in range(1, d):
            v = coordinates(heegner_class(m), basis)
            assert v == tuple(
                Fraction(1 if i == m else 0) for i in range(d)
            )
        omega = coordinates(omega_class(), basis)
        assert omega == tuple(
            Fraction(-1 if i == 0 else 0) for i in range(d)
        )


def test_integer_combinations_have_int_coordinates():
    for k in (12, 18, 34, 66):
        d = dim_mk(k)
        basis = miller_basis(k, 40)
        for terms in (
            omega_class(),
            heegner_class(7),
            primitive_heegner_class(36),
            heegner_from_primitive(36),
        ):
            assert all(type(a) is int for _, a in terms)
            coords = coordinates(terms, basis)
            assert len(coords) == d
            assert all(type(c) is int for c in coords)
            assert coords == tuple(evaluate(terms, f) for f in basis.rows)


def test_cone_generators_keep_exact_values():
    given = (3, 0, 10**12, -1)
    (g,) = Cone((given,)).generators
    assert g is given
    # an integral Fraction is refused too: Fractions only leave the library
    with pytest.raises(TypeError, match=r"Fraction\(3, 1\) is not an int"):
        Cone(((Fraction(3), 1),))
    basis = miller_basis(6, 4)
    with pytest.raises(TypeError, match="0.5 is not an int"):
        coordinates(((3, 2), (1, 0.5)), basis)
    # a zero coefficient is checked too, and so is every index
    for zero in (0.0, False, Fraction(0)):
        with pytest.raises(TypeError, match="is not an int"):
            coordinates(((1, zero),), basis)
        with pytest.raises(TypeError, match="is not an int"):
            coordinates(((zero, 1),), basis)
    for index in (True, 1.0):
        with pytest.raises(TypeError, match="is not an int"):
            coordinates(((index, 1),), basis)


Z = (0,) * 10  # pads a vector of the first hyperbolic plane to rank 12


@pytest.mark.parametrize(
    "bad", [0.5, 1.0, Decimal("0.5"), "1/3", Fraction(1, 2), Fraction(2), True]
)
@pytest.mark.parametrize("build", [
    lambda x: MillerBasis(6, ((1, x),)),
    lambda x: coordinates(((1, x),), miller_basis(6, 4)),
    lambda x: Cone(((1, x),)),
    lambda x: ray_distance((1, x), (1, 1)),  # a ray is its int vector
    lambda x: lp_feasible(2, [((1, x), 1)]),
    lambda x: rank([(1, x)]),
    lambda x: HalfIntegralMatrix(((2, x), (x, 2))),
    lambda x: inner(build_even_unimodular(10), (1, x) + Z, (1, 1) + Z),
    lambda x: norm_q(build_even_unimodular(10), (x, 1) + Z),
    lambda x: moment_matrix(build_even_unimodular(10), [(1, x) + Z]),
    lambda x: is_primitive((1, x)),
], ids=["MillerBasis", "coordinates", "Cone", "Ray", "lp_feasible", "rank",
        "HalfIntegralMatrix", "inner", "norm_q", "moment_matrix",
        "is_primitive"])
def test_records_reject_values_that_are_not_rational(build, bad):
    # the class, cone and lattice layers take ints only: a float would be
    # inexact, and a Fraction or a bool is not an int either, even when
    # integral
    with pytest.raises(TypeError, match="is not an int"):
        build(bad)


def test_coordinates_at_weight_12():
    basis = miller_basis(12, 6)
    v = coordinates(heegner_class(2), basis)
    assert v == (Fraction(196560), Fraction(-24))
    # zero and repeated indices give the linear sum of the terms
    assert coordinates(((2, 3), (0, 0), (2, -1), (5, 0)), basis) == tuple(
        2 * c for c in v
    )
    assert coordinates((), basis) == (0, 0)


def test_coordinates_precision_guard():
    basis = miller_basis(12, 6)
    # precision 6 holds the indices 0 .. 5; a negative index would read
    # a row from its end
    for index in (6, -1, -6):
        with pytest.raises(ValueError, match=f"index {index} is outside"):
            coordinates(((1, 1), (index, 1)), basis)
    assert coordinates(((5, 1), (0, 1)), basis) == tuple(
        f[5] + f[0] for f in basis.rows
    )


def test_evaluate_examples():
    e10 = eisenstein(10, 4)
    assert evaluate(omega_class(), e10) == -1
    assert evaluate(heegner_class(1), eisenstein(6, 3)) == -504
    assert evaluate((), eisenstein(6, 3)) == 0
    with pytest.raises(ValueError):
        evaluate(heegner_class(9), e10)


def test_representation_consistency():
    # evaluating a class on a form in the Miller span agrees with the
    # coordinate pairing against the form's Miller coordinates
    rng = random.Random(5)
    for k in (12, 18, 24):
        d = dim_mk(k)
        basis = miller_basis(k, 2 * d + 8)
        for _ in range(20):
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for _ in range(d)]
            f = tuple(
                sum(x * g[i] for x, g in zip(xs, basis.rows))
                for i in range(basis.precision)
            )
            terms = tuple(
                (m, rng.randint(-5, 5))
                for m in rng.sample(range(basis.precision), 4)
            )
            direct = evaluate(terms, f)
            paired = sum(
                c * x for c, x in zip(coordinates(terms, basis), xs)
            )
            assert direct == paired


def test_identity_reports():
    rows = {row[:2]: row[2:] for row in eisenstein_identity_scan(10, 4)}
    assert rows["coefficient", 1] == ("-504/1", "-504/1", True)
    assert rows["coefficient", 2] == ("-16632/1", "-16632/1", True)
    assert rows["primitive", 1] == ("-504/1", "-504/1", True)  # empty product
    assert rows["primitive", 2] == ("-16632/1", "-16632/1", True)
    assert rows["primitive", 4] == (f"{-504 * 1056}/1",) * 2 + (True,)
    # coefficient before primitive at each m, and no row below m = 1
    assert [row[:2] for row in eisenstein_identity_scan(10, 2)] == [
        ("coefficient", 1), ("primitive", 1), ("coefficient", 2), ("primitive", 2)
    ]
    assert list(eisenstein_identity_scan(10, 0)) == []


def test_identity_weight_validation():
    for n in (11, 12, 4):  # odd weight / odd k / weight 2
        with pytest.raises(ValueError):
            eisenstein_identity_scan(n, 1)
    assert weight_for_signature(10) == 6
    assert weight_for_signature(66) == 34


def test_eisenstein_evaluation_signs():
    # weights 2 mod 4 put every generator strictly on one side
    for k in (6, 10, 14, 18):
        series = eisenstein(k, 52)
        assert evaluate(omega_class(), series) == -1
        for m in range(1, 51):
            assert evaluate(heegner_class(m), series) < 0
            assert evaluate(primitive_heegner_class(m), series) < 0


def test_primitive_class_matches_moebius_sum():
    for m in range(1, 5001):
        assert primitive_heegner_class(m) == moebius_primitive_class(m), m


def _written(x):
    return f"{x.numerator}/{x.denominator}"


def test_identity_scan_factorizes_each_index_once(monkeypatch):
    calls = []
    real = classes.factorize

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(classes, "factorize", counted)
    list(eisenstein_identity_scan(18, 500))
    assert calls == list(range(1, 501))


# n = 22, 30 and 42 are the weights 12, 16 and 22, whose scale -2k/B_k has
# a denominator other than 1 (65520/691 at k = 12), as at n = 34 and 50
@pytest.mark.parametrize("n", (10, 18, 26, 34, 50, 22, 30, 42))
def test_identity_scan_matches_the_fraction_scan(n):
    got = list(eisenstein_identity_scan(n, 1000))
    assert got == _fraction_rows(n, 1000)
    assert all(row[4] for row in got)


def test_identity_scan_decides_unequal_sides_as_fractions_do(monkeypatch):
    # a sieve off by -1, 0 or +1 by index makes most checks fail; the
    # integer cross-product must decide them, and print both sides, as
    # Fraction arithmetic on the same wrong E_k does
    real = qseries._divisor_sums

    def perturbed(s, precision):
        return [x + i % 3 - 1 for i, x in enumerate(real(s, precision))]

    for module in (qseries, classes):
        monkeypatch.setattr(module, "_divisor_sums", perturbed)
    for n in (10, 22, 34):
        want = _fraction_rows(n, 300)
        assert sum(not row[4] for row in want) > 300
        assert list(eisenstein_identity_scan(n, 300)) == want


def test_identity_scan_writes_an_unequal_rhs_in_lowest_terms(monkeypatch):
    # no real scale's denominator divides a closed form at a small index
    # (691 first divides sigma_11(m) at m = 1381), so a scale of 1/3 and
    # sigma_5(2) = 33 = 2^5 + 1 show the rhs reduced by gcd(b, F.den)
    monkeypatch.setattr(classes, "_divisor_sums", lambda s, prec: [0, 1, 34])
    monkeypatch.setattr(
        classes, "_eisenstein_scale", lambda k: Fraction(1, 3)
    )
    assert list(eisenstein_identity_scan(10, 2)) == [
        ("coefficient", 1, "1/3", "1/3", True),
        ("primitive", 1, "1/3", "1/3", True),
        ("coefficient", 2, "34/3", "11/1", False),
        ("primitive", 2, "34/3", "11/1", False),
    ]


def _fraction_rows(n, max_m):
    return [
        (c, m, _written(lhs), _written(rhs), equal)
        for c, m, lhs, rhs, equal in fraction_identity_scan(n, max_m)
    ]


def test_identity_scan_builds_no_fraction_per_index():
    # a Fraction is born in Fraction.__new__, or on Python 3.12 and later
    # also in Fraction._from_coprime_ints; the count must not grow with m
    born = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        born.add(Fraction._from_coprime_ints.__func__.__code__)
    eisenstein_identity_scan(18, 1)  # fills the Bernoulli cache

    def fractions_built(max_m):
        count = 0

        def hook(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code in born

        sys.setprofile(hook)
        try:
            list(eisenstein_identity_scan(18, max_m))
        finally:
            sys.setprofile(None)
        return count

    assert 0 < fractions_built(500) == fractions_built(1000)


def test_identity_checks_reject_bad_input():
    with pytest.raises(ValueError):
        eisenstein_identity_scan(10, -1)
    with pytest.raises(ValueError):
        eisenstein_identity_scan(12, 5)
