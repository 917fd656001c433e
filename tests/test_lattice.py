import random
from fractions import Fraction

import pytest

from cyclecones import lattice
from cyclecones.lattice import (
    E8_GRAM,
    HalfIntegralMatrix,
    build_even_unimodular,
    common_component_family,
    gauss_reduce,
    inner,
    is_positive_definite,
    is_primitive,
    moment_matrix,
    norm_q,
    vector_of_norm,
)
from cyclecones.linalg import det, gram_signature
from oracles import congruent2, rand_gl2, rand_gln


def test_e8_block():
    assert det(E8_GRAM) == 1
    assert all(E8_GRAM[i][i] == 2 for i in range(8))


def test_build_examples():
    lat = build_even_unimodular(10)
    assert lat.dimension == 12
    assert det(lat.doubled) == 1
    assert gram_signature(lat.doubled) == (10, 2)

    lat18 = build_even_unimodular(18)
    assert lat18.dimension == 20
    assert det(lat18.doubled) == 1
    assert gram_signature(lat18.doubled) == (18, 2)

    for bad in (11, 12, 16, 2, 9):
        with pytest.raises(ValueError):
            build_even_unimodular(bad)


def test_inner_and_norm():
    lat = build_even_unimodular(10)
    e = (1, 0) + (0,) * 10
    f = (0, 1) + (0,) * 10
    assert norm_q(lat, e) == 0
    assert inner(lat, e, f) == 1
    assert norm_q(lat, tuple(a + b for a, b in zip(e, f))) == 1
    lam = vector_of_norm(lat, 3)
    assert norm_q(lat, tuple(2 * x for x in lam)) == 4 * norm_q(lat, lam)
    with pytest.raises(ValueError):
        inner(lat, e, (1, 0))


def test_moment_matrix_examples():
    lat = build_even_unimodular(10)
    lam = vector_of_norm(lat, 5)
    t = moment_matrix(lat, [lam])
    assert t.doubled == ((10,),)
    assert t.determinant() == 5  # T = (5)

    v1 = (1, 1, 0, 0) + (0,) * 8
    v2 = (0, 0, 1, 2) + (0,) * 8
    t2 = moment_matrix(lat, [v1, v2])
    assert t2.doubled == ((2, 0), (0, 4))
    assert is_positive_definite(t2)

    t3 = moment_matrix(lat, [v1, v1])
    assert t3.doubled == ((2, 2), (2, 2))
    assert not is_positive_definite(t3)
    assert t3.determinant() == 0

    with pytest.raises(ValueError):
        moment_matrix(lat, [])


def test_moment_matrices_are_half_integral_random():
    lat = build_even_unimodular(10)
    rng = random.Random(3)
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
        assert all(isinstance(m[i][j], int) for i in range(d) for j in range(d))
        assert [m[i][i] // 2 for i in range(d)] == [norm_q(lat, v) for v in tup]


def test_norms_invariant_under_unimodular_basis_change():
    lat = build_even_unimodular(10)
    rng = random.Random(9)
    n = lat.dimension
    for _ in range(25):
        u = rand_gln(rng, n)
        # new gram = u G u^t; coordinates transform contravariantly: if
        # lam' = lam u^{-1}... easier: pick coordinate vectors in the new
        # basis directly and compare with their image u^t-side in the old
        new_gram = tuple(
            tuple(
                sum(u[i][a] * lat.doubled[a][b] * u[j][b]
                    for a in range(n) for b in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        new_lat = HalfIntegralMatrix(new_gram)
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        mu = tuple(rng.randint(-2, 2) for _ in range(n))
        old_lam = tuple(
            sum(lam[i] * u[i][t] for i in range(n)) for t in range(n)
        )
        old_mu = tuple(
            sum(mu[i] * u[i][t] for i in range(n)) for t in range(n)
        )
        assert inner(new_lat, lam, mu) == inner(lat, old_lam, old_mu)


def test_primitivity():
    lat = build_even_unimodular(10)
    for m in (1, 2, 7, 12):
        lam = vector_of_norm(lat, m)
        assert is_primitive(lam)
        assert norm_q(lat, lam) == m
        doubled = tuple(2 * x for x in lam)
        assert not is_primitive(doubled)
        assert norm_q(lat, doubled) == 4 * m
    with pytest.raises(ValueError):
        is_primitive((0,) * 12)
    with pytest.raises(ValueError):
        vector_of_norm(lat, 0)


def test_half_integral_validation():
    with pytest.raises(ValueError):
        HalfIntegralMatrix(((1,),))  # odd diagonal = non-integral T diagonal
    with pytest.raises(ValueError):
        HalfIntegralMatrix(((2, 1), (0, 2)))
    with pytest.raises(ValueError):
        HalfIntegralMatrix(((0, 1), (2, 0)))  # asymmetric
    t = HalfIntegralMatrix(((2, 1), (1, 2)))  # T = [[1, 1/2], [1/2, 1]]
    assert t.doubled == ((2, 1), (1, 2))
    assert t.determinant() == Fraction(3, 4)
    assert t.dimension == 2 and is_positive_definite(t)


def test_is_positive_definite_examples():
    assert is_positive_definite(HalfIntegralMatrix(((2, 0), (0, 4))))
    assert not is_positive_definite(HalfIntegralMatrix(((2, 2), (2, 2))))
    assert not is_positive_definite(HalfIntegralMatrix(((-2, 0), (0, 4))))


def test_gauss_reduce_examples():
    t = HalfIntegralMatrix(((2, 1), (1, 2)))  # T = [[1,1/2],[1/2,1]]
    red, u = gauss_reduce(t)
    assert red == t and u == ((1, 0), (0, 1))

    t2 = HalfIntegralMatrix(((4, 3), (3, 4)))  # T = [[2,3/2],[3/2,2]]
    red2, u2 = gauss_reduce(t2)
    assert red2.doubled == ((2, 1), (1, 4))
    assert red2.determinant() == t2.determinant() == Fraction(7, 4)
    assert congruent2(t2, u2) == red2

    with pytest.raises(ValueError):
        gauss_reduce(HalfIntegralMatrix(((2, 2), (2, 2))))
    with pytest.raises(ValueError):
        gauss_reduce(HalfIntegralMatrix(((2,),)))


def test_gauss_reduce_rejects_a_wrong_congruence(monkeypatch):
    # u^t T u is checked against the reduced form: a congruence that
    # returns the unreduced T is refused, as a wrong u would be
    monkeypatch.setattr(lattice, "moment_matrix", lambda form, vectors: form)
    with pytest.raises(ArithmeticError, match="reduced form"):
        gauss_reduce(HalfIntegralMatrix(((4, 3), (3, 4))))


def test_gauss_reduce_rejects_a_wrong_congruence_with_asserts_stripped(
    run_optimized,
):
    test = f"{__file__}::test_gauss_reduce_rejects_a_wrong_congruence"
    proc = run_optimized("-m", "pytest", "-q", "-p", "no:cacheprovider", test)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gauss_reduce_random():
    rng = random.Random(17)
    seen = 0
    while seen < 500:
        a = rng.randint(1, 12)
        c = rng.randint(1, 12)
        b = rng.randint(-15, 15)
        if 4 * a * c - b * b <= 0:
            continue
        seen += 1
        t = HalfIntegralMatrix(((2 * a, b), (b, 2 * c)))
        red, u = gauss_reduce(t)
        # reduction conditions 0 <= b <= a <= c on (a, b, c) = (T11, 2T12, T22)
        ra, rb, rc = red.doubled[0][0] // 2, red.doubled[0][1], red.doubled[1][1] // 2
        assert 0 <= rb <= ra <= rc
        assert red.determinant() == t.determinant()
        assert u[0][0] * u[1][1] - u[0][1] * u[1][0] in (1, -1)
        assert congruent2(t, u) == red
        # idempotent with identity transform
        red2, u2 = gauss_reduce(red)
        assert red2 == red and u2 == ((1, 0), (0, 1))
        # GL_2(Z) translates land on the same representative
        for _ in range(2):
            g = rand_gl2(rng)
            rr, _ = gauss_reduce(congruent2(t, g))
            assert rr == red


def test_moment_transforms_like_the_paperside_action():
    lat = build_even_unimodular(10)
    rng = random.Random(29)
    for _ in range(60):
        v1 = tuple(rng.randint(-2, 2) for _ in range(lat.dimension))
        v2 = tuple(rng.randint(-2, 2) for _ in range(lat.dimension))
        t = moment_matrix(lat, [v1, v2])
        u = rand_gl2(rng)
        # row action (u . tuple)_i = sum_j u[i][j] tuple_j gives u T u^t
        w1 = tuple(u[0][0] * a + u[0][1] * b for a, b in zip(v1, v2))
        w2 = tuple(u[1][0] * a + u[1][1] * b for a, b in zip(v1, v2))
        got = moment_matrix(lat, [w1, w2])
        ut = ((u[0][0], u[1][0]), (u[0][1], u[1][1]))
        assert got == congruent2(t, ut)


def test_common_component_family():
    lat = build_even_unimodular(10)
    report = common_component_family(lat, 3, 5)
    entries = report["entries"]
    assert [e["j"] for e in entries] == [1, 2, 3, 4, 5]
    dets = [e["det"] for e in entries]
    assert dets == [Fraction(3 * j * j) for j in (1, 2, 3, 4, 5)]
    assert all(type(d) is Fraction for d in dets)
    assert report["base_norm"] == 3
    assert report["dets_strictly_increasing"] is True
    assert (report["jmax"], report["m"]) == (5, 3)
    assert all(e["moment_is_expected_diagonal"] for e in entries)
    assert all(e["span_matches_base"] for e in entries)
    assert entries[0]["moment_doubled"] == ((2, 0), (0, 6))
    assert entries[1]["vectors"][0][:2] == (2, 2)
    with pytest.raises(ValueError):
        common_component_family(lat, 0, 5)
    with pytest.raises(ValueError):
        common_component_family(lat, 3, 1)


def test_json_serialization(capsys):
    import json

    from cyclecones.cli import main

    for n in (10, 18):
        lat = build_even_unimodular(n)
        assert main(["lattice", "build", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        doc = {"gram": lat.doubled, "rank": lat.dimension, "signature": (n, 2)}
        assert out == json.dumps(doc, sort_keys=True) + "\n"
        doc = json.loads(out)
        assert doc["rank"] == n + 2 and doc["signature"] == [n, 2]
        assert doc["gram"][0][1] == 1
