import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecones.lattice import HalfIntegralMatrix, is_positive_definite
from cyclecones.linalg import det, gram_signature, rank
from oracles import fraction_det, fraction_gram_signature, rref

ENTRIES = [0, 0, 0, 1, -1, 2, -3, 7, 4, -6, 12, 10**12]


@st.composite
def matrices(draw):
    """Small int matrices, often rank-deficient: zero rows,
    repeated rows, scaled rows and sums of rows are mixed in, and there
    may be more rows than columns."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.sampled_from(ENTRIES), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "scale", "sum")))
        if kind == "zero" or not rows:
            extra = [0] * ncols
        else:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            c = draw(st.sampled_from((-2, 3, 5)))
            extra = {
                "repeat": a,
                "scale": [c * x for x in a],
                "sum": [x + c * y for x, y in zip(a, b)],
            }[kind]
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    return rows


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_integer_rank_matches_rref(rows):
    assert rank(rows) == len(rref(rows))


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4], [-3, -6]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1], [5, 7]]) == 2
    assert rank([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == 3
    assert rank(iter([[1, 0], [0, 1], [1, 1]])) == 2


@pytest.mark.parametrize("rows, error", [
    # checked although full column rank is reached before it
    ([[1, 0], [0, 1], [0.5, 1]], TypeError),
    ([[1], [0, 1]], ValueError),
    ([[1, 2], [2, 4, 7]], ValueError),
    ([[0, 1], [1]], ValueError),
])
def test_rank_checks_every_row_before_eliminating(rows, error):
    with pytest.raises(error):
        rank(rows)


@pytest.mark.parametrize(
    "bad", [0.5, 1.0, Decimal("0.5"), "1/3", Fraction(1, 2), Fraction(2), True]
)
def test_rank_takes_rational_entries_only(bad):
    with pytest.raises(TypeError, match="is not an int"):
        rank([[1, 2], [3, bad]])


INT_ENTRIES = [0, 0, 0, 1, -1, 2, -2, 3, -5, 7]


@st.composite
def square_matrices(draw):
    """Integer n x n matrices, n <= 6, often singular: a row may be
    repeated, scaled or a sum of two others."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(
        st.lists(st.sampled_from(INT_ENTRIES), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ))
    if n >= 2 and draw(st.booleans()):
        i, a, b = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(st.sampled_from((-2, 0, 1, 3)))
        rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def symmetric_matrices(draw, even_diagonal=False):
    """Symmetric integer matrices, n <= 7: definite, indefinite and
    singular ones, zero diagonals and hyperbolic blocks U = [[0, 1],
    [1, 0]] among them, and rows repeated with their columns."""
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("entries", "gram", "blocks")))
    if kind == "entries":
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = draw(st.sampled_from(INT_ENTRIES))
    elif kind == "gram":
        # +-B^t B, semidefinite, singular when B has fewer rows than n
        sign = draw(st.sampled_from((1, -1)))
        b = draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            max_size=n + 1,
        ))
        a = [[sign * sum(r[i] * r[j] for r in b) for j in range(n)]
             for i in range(n)]
    else:
        a = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            block = draw(st.sampled_from(((0, 1, 1, 0), (0, -2, -2, 0),
                                          (2, 1, 1, 2), (-4, 0, 0, 0))))
            if i + 1 < n:
                a[i][i], a[i][i + 1], a[i + 1][i], a[i + 1][i + 1] = block
            else:
                a[i][i] = block[0]
            i += 2
    if n >= 2 and draw(st.booleans()):
        # repeat row and column s at t
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[t] = list(a[s])
        for row in a:
            row[t] = row[s]
        a[t][t] = a[s][s]
    if even_diagonal:
        a = [[x if i != j or x % 2 == 0 else 2 * x for j, x in enumerate(row)]
             for i, row in enumerate(a)]
    return a


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_oracle(rows):
    got = det(rows)
    assert type(got) is int
    assert got == fraction_det(rows)


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
# a zero pivot, then a division by the previous pivot's |-2|: a later
# diagonal swapped in; a row and its column added; a zero row dropped
# (and, with every diagonal left zero, a row added)
@example([[0, 1, 0], [1, -2, 1], [0, 1, 3]])
@example([[-2, 0, 0], [0, 0, 1], [0, 1, 0]])
@example([[-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
def test_gram_signature_matches_fraction_oracle(gram):
    assert gram_signature(gram) == fraction_gram_signature(gram)


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices(even_diagonal=True))
def test_positive_definite_iff_leading_minors_positive(doubled):
    t = HalfIntegralMatrix(tuple(map(tuple, doubled)))
    minors = [fraction_det([row[:r] for row in doubled[:r]])
              for r in range(1, len(doubled) + 1)]
    assert is_positive_definite(t) == all(m > 0 for m in minors)


def test_det_and_signature_examples():
    assert det([]) == 1 and gram_signature([]) == (0, 0)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert det([[1, 2], [2, 4]]) == 0
    assert gram_signature([[0, 1], [1, 0]]) == (1, 1)
    assert gram_signature([[0, 0], [0, 0]]) == (0, 0)
    assert gram_signature([[-2, 1], [1, -2]]) == (0, 2)
    assert gram_signature([[-1, 0], [0, 1]]) == (1, 1)
    assert gram_signature([[0, 1, 0], [1, -2, 1], [0, 1, 3]]) == (2, 1)
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        gram_signature([[0, 1], [2, 0]])


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 6)
        rows = [[rng.choice(INT_ENTRIES) for _ in range(n)] for _ in range(n)]
        assert det(rows) == int(sympy.Matrix(n, n, sum(rows, [])).det()), rows


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), Fraction(2), 1.0, 0.5, Decimal("0.5"), "1/3", True]
)
@pytest.mark.parametrize("fn", [det, gram_signature])
def test_det_and_signature_take_int_entries_only(fn, bad):
    with pytest.raises(TypeError, match="is not an int"):
        fn([[2, 1], [1, bad]])
