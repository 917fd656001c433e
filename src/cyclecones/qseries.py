"""Exact q-expansion engine for level-1 modular forms.

A form of even weight k is represented by the tuple of the first N
coefficients of its q-expansion, all exact: ints where the form is
integral (the Miller bases), Fractions otherwise.  The module provides the
normalized Eisenstein series E_k, the weight-k dimension formula, and
echelonized (Miller) bases built in integers by Miller's Delta^j
construction from the discriminant cusp form.
"""

from __future__ import annotations

from fractions import Fraction

from .numtheory import _divisor_sums, _eisenstein_scale, _ints, _Record

__all__ = [
    "MillerBasis",
    "dim_mk",
    "eisenstein",
    "miller_basis",
    "dump_miller_basis",
    "load_miller_basis",
]


def dim_mk(k: int) -> int:
    """Dimension of the space of level-1 modular forms of weight k."""
    if k < 0 or k % 2 == 1 or k == 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def eisenstein(k: int, precision: int) -> tuple[int | Fraction, ...]:
    """Coefficients of q^0 .. q^(precision-1) of the normalized Eisenstein
    series E_k = 1 - (2k/B_k) sum_m sigma_{k-1}(m) q^m: ints where -2k/B_k
    is an int (k = 4, 6, 8, 10, 14), Fractions otherwise."""
    factor = _eisenstein_scale(k)
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if factor.denominator == 1:
        factor = factor.numerator
    sums = _divisor_sums(k - 1, precision)
    return (type(factor)(1), *(factor * x for x in sums[1:]))


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Truncated Cauchy product of integer coefficient lists."""
    n = min(len(a), len(b))
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            out[i:] = [o + ai * bj for o, bj in zip(out[i:], b)]
    return out


def _delta_ints(e4: list[int], e6: list[int]) -> list[int]:
    """Delta = (E_4^3 - E_6^2)/1728 from integer E_4, E_6; the division is
    checked to be exact."""
    out = []
    for x, y in zip(_mul(_mul(e4, e4), e4), _mul(e6, e6)):
        c, rem = divmod(x - y, 1728)
        if rem:
            raise ArithmeticError("E_4^3 - E_6^2 is not divisible by 1728")
        out.append(c)
    return out


class MillerBasis(_Record):
    """Echelon basis f_0 .. f_{d-1} of weight-k forms: f_i = q^i + O(q^d).

    ``rows`` holds the coefficient tuple of each f_i, each checked by
    _ints, so anything but an int (a Fraction, a float) raises TypeError.
    """

    __slots__ = ("weight", "rows")

    def __init__(self, weight: int, rows) -> None:
        super().__init__(weight, tuple(map(_ints, rows)))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def precision(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def miller_basis(k: int, precision: int) -> MillerBasis:
    """Echelonized basis f_i = q^i + O(q^d) of weight-k forms, in integers.

    Miller's construction (W. Stein, Modular Forms: A Computational
    Approach, section 2.2): with d = dim M_k and 4a + 6b = k - 12(d - 1),
    the forms g_j = Delta^j E_4^(3(d-1-j)) E_4^a E_6^b, j = 0 .. d-1, span
    M_k and satisfy g_j = q^j + O(q^(j+1)), so back-substituting the
    unitriangular block leaves the Miller basis, whose rows hold ints.
    Both that shape and the final identity block are checked and raise
    ArithmeticError.

    Empty spaces (odd k, k = 2, k < 0) yield a dimension-0 basis rather
    than an error.
    """
    d = dim_mk(k)
    if d == 0:
        return MillerBasis(k, ())
    if precision < max(1, d):
        raise ValueError(
            f"precision {precision} too small for dimension {d} at weight {k}"
        )
    r = k - 12 * (d - 1)  # one of 0, 4, 6, 8, 10, 14
    b = r % 4 // 2
    a = (r - 6 * b) // 4
    e4 = eisenstein(4, precision)
    e6 = eisenstein(6, precision)
    one = [1] + [0] * (precision - 1)
    tail = one
    for f, e in ((e4, a), (e6, b)):
        for _ in range(e):
            tail = _mul(tail, f)
    rows = [tail]
    if d > 1:
        e4_cubed = _mul(_mul(e4, e4), e4)
        for _ in range(d - 1):
            rows.append(_mul(rows[-1], e4_cubed))
        rows.reverse()  # rows[j] = E_4^(3(d-1-j)) E_4^a E_6^b
        disc = _delta_ints(e4, e6)
        disc_power = one
        for j in range(1, d):
            disc_power = _mul(disc_power, disc)
            rows[j] = _mul(disc_power, rows[j])
    for j, g in enumerate(rows):
        if g[j] != 1 or any(g[:j]):
            raise ArithmeticError(
                f"g_{j} is not q^{j} + O(q^{j + 1}) at weight {k}"
            )
    for i in range(d - 2, -1, -1):
        f = rows[i]
        for j in range(i + 1, d):
            c = f[j]
            if c:
                f = [x - c * y for x, y in zip(f, rows[j])]
        rows[i] = f
    for i, f in enumerate(rows):
        if any(f[j] != (i == j) for j in range(d)):
            raise ArithmeticError(
                f"Miller row {i} lacks the identity pivot block at weight {k}"
            )
    return MillerBasis(k, rows)


def dump_miller_basis(basis: MillerBasis) -> str:
    """Serialize to the on-disk text format (bit-exact round trip).

    Header line "weight k, dimension d, precision N", then d lines of N
    rationals written as "p/q" separated by single spaces; the integer
    rows of a Miller basis are written "n/1".
    """
    lines = [
        f"weight {basis.weight}, dimension {basis.dimension}, "
        f"precision {basis.precision}"
    ]
    for f in basis.rows:
        lines.append(" ".join(f"{c.numerator}/{c.denominator}" for c in f))
    return "\n".join(lines) + "\n"


def load_miller_basis(text: str) -> MillerBasis:
    """Parse the text format written by dump_miller_basis.

    Rows come back as ints.  Raises ValueError when the text breaks the
    format, holds a coefficient not written "n/1" (so "4/2" and "2/0" are
    rejected too), or lacks the identity block in its first d columns.  An
    altered integer beyond column d passes; only recomputing catches it.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty basis file")
    header = lines[0].split(", ")
    if len(header) != 3:
        raise ValueError(f"malformed header: {lines[0]!r}")
    fields = {}
    for part in header:
        name, _, value = part.partition(" ")
        fields[name] = int(value)
    if set(fields) != {"weight", "dimension", "precision"}:
        raise ValueError(f"malformed header: {lines[0]!r}")
    k, d, n = fields["weight"], fields["dimension"], fields["precision"]
    if len(lines) != 1 + d:
        raise ValueError(f"expected {d} coefficient lines, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split(" ")
        if len(tokens) != n:
            raise ValueError(f"expected {n} coefficients per line, got {len(tokens)}")
        coeffs = []
        for tok in tokens:
            p, _, q = tok.partition("/")
            if q != "1":
                raise ValueError(f"coefficient {tok} is not an integer")
            coeffs.append(int(p))
        rows.append(coeffs)
    out = MillerBasis(k, rows)
    if out.dimension != dim_mk(k):
        raise ValueError(
            f"file claims dimension {out.dimension}, weight {k} has {dim_mk(k)}"
        )
    for i, f in enumerate(out.rows):
        if f[:d] != tuple(int(i == j) for j in range(d)):
            raise ValueError(f"row {i} lacks the identity pivot block")
    return out
