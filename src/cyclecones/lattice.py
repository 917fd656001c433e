"""Even unimodular lattices of signature (n, 2) and moment-matrix
combinatorics of the tuples indexing special cycles.

A lattice is the half-integral form of its quadratic form, a
``HalfIntegralMatrix`` whose doubled matrix is its Gram matrix: even
lattices and the moment matrices T of vector tuples are one kind of
object.  The lattice is presented as U + U + E8^j with a fixed basis
order (the two hyperbolic planes first), so primitivity is the gcd of
coordinates and the witness constructions below are reproducible bit for
bit.  Every matrix and every vector taken is checked to hold ints.
Binary moment matrices carry an exact Gauss reduction to a unique
GL_2(Z) representative.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import det, gram_signature, rank
from .numtheory import _Record, _ints

__all__ = [
    "E8_GRAM",
    "U_GRAM",
    "HalfIntegralMatrix",
    "build_even_unimodular",
    "inner",
    "norm_q",
    "moment_matrix",
    "is_primitive",
    "vector_of_norm",
    "is_positive_definite",
    "gauss_reduce",
    "common_component_family",
]

# Gram matrix of the E8 root lattice in a base of simple roots
# (chain 1-3-4-5-6-7-8 with 2 attached to 4); even, positive definite,
# determinant 1.
_E8_ADJACENCY = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
E8_GRAM = tuple(
    tuple(
        2 if i == j else (-1 if (i + 1, j + 1) in _E8_ADJACENCY
                          or (j + 1, i + 1) in _E8_ADJACENCY else 0)
        for j in range(8)
    )
    for i in range(8)
)

U_GRAM = ((0, 1), (1, 0))


class HalfIntegralMatrix(_Record):
    """Symmetric half-integral d x d matrix, stored doubled (2T integral).

    The diagonal of T is integral, i.e. the doubled matrix has even
    diagonal; off-diagonal doubled entries may be odd.  An even lattice
    is the form of its quadratic form q: its Gram matrix is the doubled
    matrix.  Every entry must be an int; rows are stored as tuples.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled: tuple[tuple[int, ...], ...]) -> None:
        m = tuple(_ints(row) for row in doubled)
        d = len(m)
        if any(len(row) != d for row in m):
            raise ValueError("matrix must be square")
        if any(m[i][j] != m[j][i] for i in range(d) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        if any(m[i][i] % 2 for i in range(d)):
            raise ValueError("diagonal of T must be integral (doubled even)")
        super().__init__(m)

    @property
    def dimension(self) -> int:
        return len(self.doubled)

    def determinant(self) -> Fraction:
        """det T = det 2T / 2^d."""
        return Fraction(det(self.doubled), 2 ** self.dimension)


def build_even_unimodular(n: int) -> HalfIntegralMatrix:
    """The form of U + U + E8^((n-2)/8), of signature (n, 2); needs
    n = 2 mod 8, n >= 10."""
    if n % 8 != 2 or n < 10:
        raise ValueError(
            f"no even unimodular lattice of signature ({n}, 2): need "
            "n = 2 mod 8 and n >= 10"
        )
    blocks = [U_GRAM, U_GRAM] + [E8_GRAM] * ((n - 2) // 8)
    rank = sum(len(b) for b in blocks)
    gram = [[0] * rank for _ in range(rank)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                gram[offset + i][offset + j] = x
        offset += len(b)
    return HalfIntegralMatrix(gram)


def inner(lattice: HalfIntegralMatrix, lam, mu) -> int:
    """Bilinear form value (lam, mu) in the fixed basis."""
    g = lattice.doubled
    n = lattice.dimension
    lam, mu = _ints(lam), _ints(mu)
    if len(lam) != n or len(mu) != n:
        raise ValueError(f"vectors must have rank {n}")
    return sum(lam[i] * g[i][j] * mu[j] for i in range(n) for j in range(n))


def norm_q(lattice: HalfIntegralMatrix, lam) -> int:
    """Quadratic form q(lam) = (lam, lam)/2, an integer by evenness."""
    return inner(lattice, lam, lam) // 2


def moment_matrix(lattice: HalfIntegralMatrix, vectors) -> HalfIntegralMatrix:
    """Moment matrix of a tuple: T with 2T[i][j] = (lam_i, lam_j)."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("moment matrix needs at least one vector")
    doubled = tuple(
        tuple(inner(lattice, v, w) for w in vectors) for v in vectors
    )
    return HalfIntegralMatrix(doubled)


def is_primitive(lam) -> bool:
    """A nonzero vector is primitive when its coordinate gcd is 1."""
    g = gcd(*_ints(lam))
    if g == 0:
        raise ValueError("the zero vector is neither primitive nor imprimitive")
    return g == 1


def vector_of_norm(lattice: HalfIntegralMatrix, m: int) -> tuple[int, ...]:
    """Primitive witness vector of norm q = m: e + m f in the first
    hyperbolic plane."""
    if m < 1:
        raise ValueError(f"norm must be >= 1, got {m}")
    v = (1, m) + (0,) * (lattice.dimension - 2)
    if not is_primitive(v):
        raise AssertionError("witness construction must be primitive")
    return v


def _second_block_vector(lattice: HalfIntegralMatrix, m: int) -> tuple[int, ...]:
    # e + m f in the second hyperbolic plane; orthogonal to the first block
    return (0, 0, 1, m) + (0,) * (lattice.dimension - 4)


def is_positive_definite(t: HalfIntegralMatrix) -> bool:
    """T is positive definite when the inertia of 2T is (d, 0)."""
    return gram_signature(t.doubled) == (t.dimension, 0)


def gauss_reduce(
    t: HalfIntegralMatrix,
) -> tuple[HalfIntegralMatrix, tuple[tuple[int, int], tuple[int, int]]]:
    """Unique GL_2(Z) representative of a positive definite binary T.

    Returns (T_reduced, u) with u^t T u = T_reduced and det u = +-1.  In
    integral form coordinates (a, b, c) = (T11, 2 T12, T22) the
    representative satisfies 0 <= b <= a <= c; the sign normalization of b
    uses the determinant -1 element diag(1, -1), which is what makes
    GL_2(Z)-translates land on one representative.
    """
    if t.dimension != 2 or not is_positive_definite(t):
        raise ValueError("reduction needs a positive definite binary matrix")
    a, b, c = t.doubled[0][0] // 2, t.doubled[0][1], t.doubled[1][1] // 2
    u = ((1, 0), (0, 1))

    def mul(p, q):
        return (
            (p[0][0] * q[0][0] + p[0][1] * q[1][0],
             p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0],
             p[1][0] * q[0][1] + p[1][1] * q[1][1]),
        )

    while True:
        if not (-a < b <= a):
            shift = (a - b) // (2 * a)
            b, c = b + 2 * a * shift, a * shift * shift + b * shift + c
            u = mul(u, ((1, shift), (0, 1)))
        if a > c:
            a, c = c, a
            u = mul(u, ((0, 1), (1, 0)))
            continue
        break
    if b < 0:
        b = -b
        u = mul(u, ((1, 0), (0, -1)))
    reduced = HalfIntegralMatrix(((2 * a, b), (b, 2 * c)))
    if u[0][0] * u[1][1] - u[0][1] * u[1][0] not in (1, -1):
        raise ArithmeticError(f"reduction matrix {u} is not unimodular")
    # u^t T u is the moment matrix, in the form T, of the columns of u
    if moment_matrix(t, zip(*u)) != reduced:
        raise ArithmeticError(f"u^t T u does not give the reduced form for {u}")
    return reduced, u


def common_component_family(
    lattice: HalfIntegralMatrix, m: int, j_max: int
) -> dict:
    """The report of the tuples (j lam1, lam2), 1 <= j <= j_max, that
    share one orthogonal complement, keyed as ``lattice family`` prints it.

    lam1 and lam2 sit in the two hyperbolic planes with q(lam1) = 1 and
    q(lam2) = m, so the moment matrices are diag(j^2 q(lam1), m) of
    strictly increasing determinant while all tuples span one rational
    plane.  Two row spaces A and B are equal when rank(A) = rank(B) =
    rank(A and B stacked).  The report holds base_norm (q(lam2)),
    dets_strictly_increasing, jmax, m and one entry per j: det (a
    Fraction), j, moment_doubled, moment_is_expected_diagonal,
    span_matches_base and vectors.
    """
    if m < 1:
        raise ValueError(f"norm must be >= 1, got {m}")
    if j_max < 2:
        raise ValueError(f"need j_max >= 2 for a family, got {j_max}")
    lam1 = vector_of_norm(lattice, 1)
    lam2 = _second_block_vector(lattice, m)
    if inner(lattice, lam1, lam2) != 0:
        raise AssertionError("family base vectors must be orthogonal")
    q1 = norm_q(lattice, lam1)
    base_rank = rank([lam1, lam2])
    entries = []
    for j in range(1, j_max + 1):
        scaled = tuple(j * x for x in lam1)
        moment = moment_matrix(lattice, (scaled, lam2))
        entries.append({
            "det": moment.determinant(),
            "j": j,
            "moment_doubled": moment.doubled,
            "moment_is_expected_diagonal":
                moment.doubled == ((2 * j * j * q1, 0), (0, 2 * m)),
            "span_matches_base":
                rank([scaled, lam2]) == rank([lam1, lam2, scaled]) == base_rank,
            "vectors": (scaled, lam2),
        })
    dets = [e["det"] for e in entries]
    return {
        "base_norm": norm_q(lattice, lam2),
        "dets_strictly_increasing": all(a < b for a, b in zip(dets, dets[1:])),
        "entries": entries,
        "jmax": j_max,
        "m": m,
    }
