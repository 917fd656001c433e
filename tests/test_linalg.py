from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecones.linalg import rank
from oracles import rref

ENTRIES = [0, 0, 0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3),
           Fraction(5, 4), Fraction(6, 3)]


@st.composite
def matrices(draw):
    """Small int and Fraction matrices, often rank-deficient: zero rows,
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
            c = draw(st.sampled_from((-2, Fraction(1, 3), 5)))
            extra = {
                "repeat": a,
                "scale": [c * x for x in a],
                "sum": [x + c * y for x, y in zip(a, b)],
            }[kind]
        rows.insert(draw(st.integers(0, len(rows))), list(extra))
    if draw(st.booleans()):
        rows = [[int(x) for x in r] for r in rows]
    return rows


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_integer_rank_matches_rref(rows):
    assert rank(rows) == len(rref(rows))


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4], [Fraction(1, 2), 1]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1], [5, 7]]) == 2
    assert rank([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == 3
    # full column rank stops the scan: the third row is never read
    assert rank(iter([[1, 0], [0, 1], None])) == 2
