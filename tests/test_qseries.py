import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecones import qseries
from cyclecones.classes import (
    coordinates,
    heegner_class,
    omega_class,
    primitive_heegner_class,
)
from cyclecones.qseries import (
    _mul,
    dim_mk,
    dump_miller_basis,
    eisenstein,
    load_miller_basis,
    miller_basis,
)
from oracles import eisenstein_ints, jacobi_delta, monomial_miller_basis

coefficient_lists = st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2, -7, 240, -504, 10**12]),
    min_size=1, max_size=8,
)


def test_dim_examples():
    assert dim_mk(0) == 1
    assert dim_mk(2) == 0
    assert dim_mk(12) == 2
    assert dim_mk(14) == 1
    assert dim_mk(-4) == 0
    assert dim_mk(7) == 0


def test_dim_matches_monomial_rank():
    for k in range(4, 62, 2):
        d = dim_mk(k)
        assert monomial_miller_basis(k, d + 5).dimension == d


def test_eisenstein_examples():
    e4 = eisenstein(4, 3)
    assert e4 == (1, 240, 2160)
    e6 = eisenstein(6, 2)
    assert e6 == (1, -504)
    for k in (4, 8, 10, 16):
        assert eisenstein(k, 1) == (1,)


def test_eisenstein_matches_brute_force_divisor_sums():
    for k in range(4, 61, 2):
        assert eisenstein(k, 300) == eisenstein_ints(k, 300), k


def test_eisenstein_is_integral_exactly_where_its_scale_is():
    for k in range(4, 41, 2):
        coefficients = eisenstein(k, 50)
        types = {type(c) for c in coefficients}
        if k in (4, 6, 8, 10, 14):  # -2k/B_k is an int
            assert types == {int}, k
            assert coefficients == eisenstein_ints(k, 50), k
        else:
            assert types == {Fraction}, k


def test_eisenstein_rejects_bad_weight():
    for k in (2, 3, 0, -4, 5):
        with pytest.raises(ValueError):
            eisenstein(k, 5)


def test_multiply_example():
    assert _mul([1, 1, 0], [1, -1, 0]) == [1, 0, -1]
    assert _mul([5], [3, 1]) == [15]
    assert _mul([0, 0, 0], [1, 2, 3]) == [0, 0, 0]


def test_power_of_e4():
    e4 = eisenstein_ints(4, 5)
    assert _mul(_mul(e4, e4), e4)[1] == 720


def test_precision_is_minimum():
    a = eisenstein_ints(4, 9)
    b = eisenstein_ints(4, 5)
    assert _mul(a, b) == _mul(b, a) == _mul(a[:5], b)
    assert len(_mul(a, b)) == 5


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_multiply_commutative_associative(a, b, c):
    n = min(len(a), len(b))
    ab = _mul(a, b)
    assert ab == _mul(b, a)
    assert len(ab) == n
    assert ab == [
        sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n)
    ]
    assert _mul(ab, c) == _mul(a, _mul(b, c))


def delta(precision):
    """Delta's coefficients through qseries' own integer helpers, read at
    call time so that a test can replace one of them."""
    return qseries._delta_ints(
        qseries.eisenstein(4, precision), qseries.eisenstein(6, precision)
    )


def test_delta_examples():
    assert delta(5) == [0, 1, -24, 252, -1472]


def test_e4_cube_minus_e6_square_is_cuspidal_multiple_of_1728():
    n = 200
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    diff = [
        x - y for x, y in zip(_mul(_mul(e4, e4), e4), _mul(e6, e6))
    ]
    assert len(diff) == n and diff[0] == 0
    for c in diff:
        assert c % 1728 == 0


def test_miller_examples():
    b6 = miller_basis(6, 8)
    assert b6.dimension == 1
    assert b6.rows == (eisenstein(6, 8),)

    b0 = miller_basis(0, 3)
    assert b0.dimension == 1
    assert b0.rows == ((1, 0, 0),)

    b12 = miller_basis(12, 8)
    assert b12.dimension == 2
    assert b12.rows[1] == tuple(delta(8))


def test_miller_empty_spaces():
    assert miller_basis(2, 5).dimension == 0
    assert miller_basis(7, 5).dimension == 0
    assert miller_basis(-2, 5).dimension == 0


def test_miller_rejects_small_precision():
    with pytest.raises(ValueError):
        miller_basis(12, 1)


def test_miller_pivot_property_and_integrality():
    for k in range(4, 62, 2):
        d = dim_mk(k)
        basis = miller_basis(k, 2 * d)
        for i, f in enumerate(basis.rows):
            for j in range(d):
                assert f[j] == (1 if i == j else 0)
            for c in f:
                assert c.denominator == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_operators_preserve_the_miller_span(p):
    # T_p f has coefficients b(n) = a(pn) + p^(k-1) a(n/p), the second
    # term only when p | n; a modular form of weight k maps to one, so
    # T_p f = sum_{i<d} b(i) f_i as far as b is known, n <= (N-1)/p
    n_prec = 60
    for k in range(4, 100, 2):
        basis = miller_basis(k, n_prec)
        rows = basis.rows
        top = (n_prec - 1) // p
        assert top >= basis.dimension - 1
        for a in rows:
            b = [
                a[p * n] + (p ** (k - 1) * a[n // p] if n % p == 0 else 0)
                for n in range(top + 1)
            ]
            combo = [
                sum(b[i] * f[n] for i, f in enumerate(rows))
                for n in range(top + 1)
            ]
            assert b == combo, (k, p)


def test_miller_basis_matches_monomial_oracle():
    cases = [(k, n) for k in range(0, 100, 2) for n in (dim_mk(k) + 5, 60)]
    for k, n in cases + [(18, 201)]:
        basis = miller_basis(k, n)
        oracle = monomial_miller_basis(k, n)
        assert basis == oracle, (k, n)
        assert dump_miller_basis(basis) == dump_miller_basis(oracle), (k, n)


@pytest.mark.parametrize(
    "wrong_delta",
    [
        lambda e4, e6: [0, 0, 1] + [0] * (len(e4) - 3),  # q^2: one order too high
        lambda e4, e6: [2 * c for c in jacobi_delta(len(e4))],  # 2 Delta
    ],
    ids=["shifted", "doubled"],
)
def test_miller_certificate_rejects_a_wrong_delta(monkeypatch, wrong_delta):
    monkeypatch.setattr(qseries, "_delta_ints", wrong_delta)
    with pytest.raises(ArithmeticError, match="g_1 is not q"):
        miller_basis(24, 10)


def test_delta_rejects_an_inexact_1728_division(monkeypatch):
    real = qseries.eisenstein

    def wrong_e6(k, precision):
        out = real(k, precision)
        if k == 6:
            out = (*out[:3], out[3] + 1, *out[4:])
        return out

    monkeypatch.setattr(qseries, "eisenstein", wrong_e6)
    for build in (lambda: delta(10), lambda: miller_basis(12, 10)):
        with pytest.raises(ArithmeticError, match="not divisible by 1728"):
            build()


def test_miller_certificate_with_asserts_stripped(run_optimized):
    tests = [
        f"{__file__}::test_miller_certificate_rejects_a_wrong_delta",
        f"{__file__}::test_delta_rejects_an_inexact_1728_division",
    ]
    proc = run_optimized("-m", "pytest", "-q", "-p", "no:cacheprovider", *tests)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout


def _tau():
    return delta(201)


def test_delta_equals_jacobi_product():
    assert delta(201) == jacobi_delta(201)


def test_tau_multiplicative_on_coprime_pairs():
    tau = _tau()
    pairs = [
        (m, n)
        for m in range(2, 201)
        for n in range(m + 1, 201 // m + 1)
        if m * n < 201 and math.gcd(m, n) == 1
    ]
    assert len(pairs) > 100
    for m, n in pairs:
        assert tau[m * n] == tau[m] * tau[n], (m, n)


def test_tau_at_prime_squares():
    tau = _tau()
    for p in (2, 3, 5, 7, 11, 13):
        assert tau[p * p] == tau[p] ** 2 - p**11, p


def test_basis_serialization_round_trip():
    basis = miller_basis(24, 12)
    text = dump_miller_basis(basis)
    again = load_miller_basis(text)
    assert again == basis
    assert dump_miller_basis(again) == text
    assert text.startswith("weight 24, dimension 3, precision 12\n")


def test_miller_rows_are_ints_and_reload_byte_identically():
    for k, n in ((4, 5), (24, 12), (98, 40)):
        basis = miller_basis(k, n)
        text = dump_miller_basis(basis)
        loaded = load_miller_basis(text)
        for b in (basis, loaded):
            assert all(type(c) is int for f in b.rows for c in f)
            # -c_0, H_m and P_m, P_4 = c_4 - c_1 among them
            for terms in (omega_class(), *(
                build(m) for m in (4, n - 1)
                for build in (heegner_class, primitive_heegner_class)
            )):
                assert all(type(c) is int for c in coordinates(terms, b))
        assert loaded == basis
        assert dump_miller_basis(loaded) == text


def test_load_rejects_corrupt_text():
    basis = miller_basis(12, 6)
    text = dump_miller_basis(basis)
    for bad in ("", "garbage", text.replace("dimension 2", "dimension 3"),
                text[:-20]):
        with pytest.raises((ValueError, IndexError)):
            load_miller_basis(bad)
    # files that parse but fail the checks that need no recomputation
    f0, f1 = text.splitlines()[1:]
    assert f0.startswith("1/1 0/1 ") and f1.endswith(" 4830/1")
    short = text.replace("precision 6", "precision 1")
    for bad, why in (
        (text.replace("4830/1", "4831/2"), "not an integer"),
        # integral values, but not written n/1
        (text.replace("4830/1", "9660/2"), "not an integer"),
        (text.replace("4830/1", "4830/0"), "not an integer"),
        (text.replace("4830/1", "4830"), "not an integer"),
        (text.replace(f0, "1/1 1/1 " + f0[8:]), "identity pivot block"),
        (short.replace(f0, "1/1").replace(f1, "0/1"), "identity pivot block"),
    ):
        with pytest.raises(ValueError, match=why):
            load_miller_basis(bad)
