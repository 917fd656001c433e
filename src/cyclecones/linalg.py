"""Small exact linear-algebra helpers over the rationals (dense, desk
scale): rank by fraction-free integer elimination, the rest over
Fractions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rank", "det", "gram_signature"]


def rank(rows) -> int:
    """Rank of a rational matrix, without building a Fraction for int rows.

    Rows are taken one at a time and scaled to integers.  Each is reduced
    against the echelon rows kept so far, as p*row - f*pivot_row with
    p the pivot, which changes no rank, and divided by its gcd; a row that
    does not vanish joins them.  The scan stops once the rank equals the
    column count, so the remaining rows are never read.
    """
    echelon = []  # (pivot column, primitive integer row)
    for row in rows:
        row = [x if type(x) is int else Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
        for col, pivot_row in echelon:
            f = row[col]
            if f:
                p = pivot_row[col]
                row = [p * x - f * y for x, y in zip(row, pivot_row)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        g = gcd(*row)
        echelon.append((col, [x // g for x in row]))
        if len(echelon) == len(row):
            break
    return len(echelon)


def det(rows) -> Fraction:
    """Determinant of a square rational matrix by exact elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    if any(len(row) != n for row in work):
        raise ValueError("determinant needs a square matrix")
    out = Fraction(1)
    for col in range(n):
        src = next((r for r in range(col, n) if work[r][col] != 0), None)
        if src is None:
            return Fraction(0)
        if src != col:
            work[col], work[src] = work[src], work[col]
            out = -out
        piv = work[col][col]
        out *= piv
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] / piv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return out


def gram_signature(gram) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric rational matrix.

    Exact symmetric congruence reduction; zero eigenvalues count in
    neither entry.
    """
    A = [[Fraction(x) for x in row] for row in gram]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("signature needs a square matrix")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("signature needs a symmetric matrix")
    pos = neg = 0
    for i in range(n):
        if A[i][i] == 0:
            j = next((t for t in range(i + 1, n) if A[t][t] != 0), None)
            if j is not None:
                A[i], A[j] = A[j], A[i]
                for row in A:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((t for t in range(i + 1, n) if A[i][t] != 0), None)
                if j is None:
                    continue
                for t in range(n):
                    A[i][t] += A[j][t]
                for t in range(n):
                    A[t][i] += A[t][j]
        piv = A[i][i]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if A[r][i] != 0:
                f = A[r][i] / piv
                for c in range(n):
                    A[r][c] -= f * A[i][c]
                for c in range(n):
                    A[c][r] -= f * A[c][i]
    return pos, neg
