"""Exact linear algebra in integers for small dense matrices.

``rank``, ``det``, ``gram_signature`` and the simplex in cones eliminate
by one fraction-free rule (Edmonds 1967, Bareiss 1968): each update is
divided by the previous pivot, so every entry is a minor, up to sign, and
every division is exact.  Each function here takes int rows of one
length, checked by numtheory._ints, before it eliminates.
"""

from __future__ import annotations

from .numtheory import _ints

__all__ = ["rank", "det", "gram_signature"]


def _echelon(rows) -> list[tuple[int, list[int]]]:
    """(pivot column, row) for each integer row independent of the rows
    before it, reduced against the rows kept; stops at full column rank.

    A row is reduced against kept row j, of pivot p_j in column c_j, as
    (p_j * row - row[c_j] * row_j) / p_{j-1}, with p_0 = 1.  Its entries
    are then minors of the input, on the kept rows and itself and on the
    pivot columns and one more, so the division is exact.  It trusts its
    caller to pass int rows of one length, as _int_rows and Cone check
    them.
    """
    kept = []
    for row in rows:
        prev = 1
        for col, kept_row in kept:
            p, f = kept_row[col], row[col]
            row = [(p * x - f * y) // prev for x, y in zip(row, kept_row)]
            prev = p
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            kept.append((col, row))
            if len(kept) == len(row):
                break
    return kept


def _int_rows(rows) -> list[list[int]]:
    """The rows as lists of ints checked by _ints, all of one length."""
    rows = [list(_ints(row)) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    return rows


def rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(_int_rows(rows)))


def _square_ints(rows, what: str) -> list[list[int]]:
    rows = _int_rows(rows)
    if rows and len(rows[0]) != len(rows):
        raise ValueError(f"{what} needs a square matrix")
    return rows


def det(rows) -> int:
    """Determinant of a square integer matrix: the last pivot of the
    elimination, signed by the permutation of the pivot columns."""
    rows = _square_ints(rows, "determinant")
    kept = _echelon(rows)
    if len(kept) < len(rows):
        return 0
    cols = [col for col, _ in kept]
    sign = (-1) ** sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return sign * kept[-1][1][cols[-1]] if kept else 1


def gram_signature(gram) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric integer matrix.

    Congruence reduction by the rule of _echelon: a nonzero pivot p splits
    off its sign, and the rest becomes its Schur complement times
    |p| / |p_prev|, of the same inertia.  A zero pivot is first swapped for
    a later nonzero diagonal, raised by adding a row and its column, or
    dropped with its zero row; none of these changes p_prev.  Zero
    eigenvalues count in neither entry.
    """
    A = _square_ints(gram, "signature")
    if A != [list(col) for col in zip(*A)]:
        raise ValueError("signature needs a symmetric matrix")
    pos = neg = 0
    prev = 1
    while A:
        if A[0][0] == 0:
            j = next((t for t in range(1, len(A)) if A[t][t]), None)
            if j is not None:
                A[0], A[j] = A[j], A[0]
                for row in A:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((t for t in range(1, len(A)) if A[0][t]), None)
                if j is None:
                    A = [row[1:] for row in A[1:]]
                    continue
                # every later diagonal is zero: the new pivot is 2 A[0][j]
                A[0] = [x + y for x, y in zip(A[0], A[j])]
                for row in A:
                    row[0] += row[j]
        p, top = A[0][0], A[0][1:]
        if p > 0:
            pos, s = pos + 1, 1
        else:
            neg, s = neg + 1, -1
        A = [
            [s * (p * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
            for row in A[1:]
        ]
        prev = abs(p)
    return pos, neg
