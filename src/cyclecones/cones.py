"""Exact ray and cone geometry on integer vectors.

Every vector taken in is a tuple of ints (numtheory._ints); Fractions
appear only in returned values.  Rays are oriented (positive scaling
only).  A ray is stored as its primitive integer vector; its canonical
representative, normalized so the largest absolute coordinate is 1, is
built only for printing.  Cone questions (pointedness, membership,
extremality) are decided by an exact simplex with Bland's rule on
integer rows, in the one LP form {x >= 0 : A x = b}, which pivots by
linalg's fraction-free rule.  Every answer is checked in ints: a
feasible one by its witness, an infeasible one by its Farkas
certificate.  No floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .classes import (
    coordinates,
    heegner_class,
    omega_class,
    primitive_heegner_class,
)
from .numtheory import _ints, _Record
from .qseries import MillerBasis

__all__ = [
    "Ray",
    "Cone",
    "NotPointedError",
    "ray_distance",
    "omega_ray",
    "convergence_scan",
    "accumulation_cone_model",
    "pointedness_witness",
    "extremal_generators",
    "span_dimension",
    "cone_report",
    "lp_feasible",
]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a positive factor)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _ray_key(g) -> tuple[int, ...]:
    """The primitive integer vector on the oriented ray of a nonzero int
    vector g, already checked.  Two nonzero vectors lie on one oriented
    ray exactly when their keys are equal."""
    return tuple(_primitive(g))


class Ray(_Record):
    """Oriented ray of a nonzero int vector, checked by _ints, held as its
    primitive integer vector ``key``; two rays are equal exactly when
    their keys are equal, and Ray(r.key) == r."""

    __slots__ = ("key",)

    def __init__(self, coords) -> None:
        key = _ray_key(_ints(coords))
        if not any(key):
            raise ValueError("the zero vector spans no ray")
        super().__init__(key)

    @property
    def canonical(self) -> tuple[Fraction, ...]:
        """The representative with max |coordinate| = 1, as Fractions."""
        m = max(map(abs, self.key))
        return tuple(Fraction(c, m) for c in self.key)

    @property
    def dimension(self) -> int:
        return len(self.key)


class Cone(_Record):
    """Finitely generated cone, kept as its generators: int coordinate
    tuples, each checked by _ints, so a Fraction or a float raises
    TypeError."""

    __slots__ = ("generators",)

    def __init__(self, generators) -> None:
        generators = tuple(map(_ints, generators))
        if len({len(g) for g in generators}) > 1:
            raise ValueError("generators must share one dimension")
        if not all(map(any, generators)):
            raise ValueError("zero generators are not allowed")
        super().__init__(generators)

    @property
    def dimension(self) -> int:
        return len(self.generators[0]) if self.generators else 0


class NotPointedError(ValueError):
    """Raised when a question needs a pointed cone and the cone contains a
    line."""


def ray_distance(r1: Ray, r2: Ray) -> Fraction:
    """L-infinity distance between canonical representatives, in ints: for
    keys u, v with a = max |u_i|, b = max |v_i| it is max_i |u_i b - v_i a|
    over a b, one Fraction per pair."""
    if r1.dimension != r2.dimension:
        raise ValueError(
            f"dimension mismatch: {r1.dimension} vs {r2.dimension}"
        )
    u, v = r1.key, r2.key
    a, b = max(map(abs, u)), max(map(abs, v))
    return Fraction(max(abs(x * b - y * a) for x, y in zip(u, v)), a * b)


def omega_ray(basis: MillerBasis) -> Ray:
    """Ray of the Kähler class: -e_0 in Miller-dual coordinates."""
    if basis.dimension < 1:
        raise ValueError(f"weight {basis.weight} has an empty form space")
    return Ray(coordinates(omega_class(), basis))


def convergence_scan(
    basis: MillerBasis, m_set, primitive: bool = True
) -> list[tuple[int, Fraction]]:
    """Exact ray distances toward the Kähler ray, one row per index m.

    For each m the (primitive) Heegner class ray of the basis weight is
    compared with the omega ray in the L-infinity ray metric.  The
    distances tend to 0 for k = 2 mod 4; for k = 0 mod 4 the Eisenstein
    sign flips and the limit ray is +e_0 instead, so distances approach 2
    (a class's Ray(coordinates(terms, basis)) shows the limit attained).
    """
    m_set = list(m_set)
    if any(m < 1 for m in m_set):
        raise ValueError("scan indices must be >= 1")
    target = omega_ray(basis)
    build = primitive_heegner_class if primitive else heegner_class
    out = []
    for m in m_set:
        ray = Ray(coordinates(build(m), basis))
        out.append((m, ray_distance(ray, target)))
    return out


def accumulation_cone_model(basis: MillerBasis, truncation: int) -> Cone:
    """Truncated model of the accumulation cone at the basis weight.

    Generated by the omega class together with the primitive Heegner
    classes of index 1..truncation, all in Miller-dual coordinates.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if basis.dimension < 1:
        raise ValueError(f"weight {basis.weight} has an empty form space")
    gens = [coordinates(omega_class(), basis)]
    for m in range(1, truncation + 1):
        gens.append(coordinates(primitive_heegner_class(m), basis))
    return Cone(tuple(gens))


# ---------------------------------------------------------------------------
# Exact LP core: Phase-I simplex on integer rows with Bland's rule.
# ---------------------------------------------------------------------------


def _phase1(A, b, n):
    """Feasibility of {x >= 0 : A x = b}, A (n columns) and b of ints.

    Returns (True, (X, D)) with ints X and D > 0, the witness being X / D,
    or (False, Y) with ints Y, a Farkas certificate: Y . A[:, j] <= 0 for
    every column j and Y . b > 0.

    Dense Phase-I simplex: one unit artificial column per row, minimize
    their sum, Bland's rule for both entering and leaving choices (no
    cycling).  No Fraction is built: every tableau row and the
    reduced-cost row are the rational tableau's rows times one positive
    scale d, the absolute determinant of the current basis, first 1.
    Pricing reads signs only, the ratio test cross-multiplies, and a pivot
    on p = T_r[e] > 0 replaces every other row by (p*T_i - T_i[e]*T_r) / d,
    an exact division, and then sets d = p (Edmonds 1967, Bareiss 1968).
    So every basic column holds d in its row, and the witness is the rhs
    column over d.

    The reduced-cost row is d*c - sum_i z_i*T_i over the starting rows
    T_i, so red[n+i] = d - z_i.  At an optimum with a positive artificial
    sum, z with the start's sign flips is the certificate (Farkas 1902).
    """
    m = len(A)
    total = n + m
    signs = [-1 if x < 0 else 1 for x in b]
    rows = [
        [s * x for x in A[i]] + [int(t == i) for t in range(m)] + [s * b[i]]
        for i, s in enumerate(signs)
    ]
    basis = [n + i for i in range(m)]
    # reduced costs of the artificial sum, zero on the artificial columns
    red = [-sum(row[j] for row in rows) for j in range(total + 1)]
    red[n:total] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                # row[total] / a against best_rhs / best_a, both a > 0
                lhs, rhs = row[total] * best_a, best_rhs * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave, best_rhs, best_a = i, row[total], a
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        prow = rows[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                f = rows[i][enter]
                rows[i] = [(p * x - f * y) // d for x, y in zip(rows[i], prow)]
        f = red[enter]
        red = [(p * x - f * y) // d for x, y in zip(red, prow)]
        basis[leave], d = enter, p

    # red[total] is minus the artificial sum, times d
    if red[total] < 0:
        return False, [s * (d - red[n + i]) for i, s in enumerate(signs)]
    value = {j: row[total] for j, row in zip(basis, rows)}
    return True, ([value.get(j, 0) for j in range(n)], d)


def lp_feasible(n_vars: int, eq):
    """Exact feasibility of {x >= 0 : coeffs . x == rhs for every row}.

    ``eq`` rows are pairs (coefficients, rhs) of ints, checked by _ints,
    so a Fraction or a float raises TypeError.  Returns (True, (X, D))
    with the witness x = X / D, ints X >= 0 and D > 0, or (False, Y) with
    a primitive Farkas certificate, one int per row: sum_i Y[i] * coeffs_i
    <= 0 in every column and sum_i Y[i] * rhs_i > 0.  Either answer is
    verified in ints first; one that does not check raises ArithmeticError.
    """
    if n_vars < 0:
        raise ValueError(f"n_vars must be >= 0, got {n_vars}")
    rows = [_ints((*c, r)) for c, r in eq]
    for row in rows:
        if len(row) != n_vars + 1:
            raise ValueError(
                f"row length {len(row) - 1} does not match {n_vars} variables"
            )
    A = [row[:-1] for row in rows]
    b = [row[-1] for row in rows]
    feasible, answer = _phase1(A, b, n_vars)
    if feasible:
        X, D = answer
        if len(X) != n_vars or D <= 0 or any(v < 0 for v in X):
            raise ArithmeticError("LP witness is not a nonnegative point")
        for i, (coef, rhs) in enumerate(zip(A, b)):
            if sum(c * v for c, v in zip(coef, X)) != rhs * D:
                raise ArithmeticError(f"LP witness violates row {i}")
        return True, (X, D)
    Y = answer
    if (
        len(Y) != len(A)
        or sum(y * v for y, v in zip(Y, b)) <= 0
        or any(sum(y * c for y, c in zip(Y, col)) > 0 for col in zip(*A))
    ):
        raise ArithmeticError("LP infeasibility certificate does not check")
    return False, _primitive(Y)


def _in_cone(v, gens) -> bool:
    """Whether the coordinate vector v is a nonnegative combination of the
    coordinate vectors gens, all of one length."""
    if not any(v):
        return True
    if not gens:
        return False
    eq = [([g[i] for g in gens], v[i]) for i in range(len(v))]
    return lp_feasible(len(gens), eq)[0]


def pointedness_witness(cone: Cone):
    """Rational y with <y, g> >= 1 for all generators, or None.  A cone
    with no generators is pointed, and its witness is the empty tuple ().

    Decided through the exact LP on the other side of Gordan's
    alternative, which has only dimension+1 rows: some nonnegative
    combination of the generators with weights summing to 1 vanishes.
    When it does not, the LP's checked Farkas certificate Y has
    Y[:d] . g + Y[d] <= 0 for every generator g and Y[d] > 0, so
    y = -Y[:d] / Y[d].
    """
    gens = cone.generators
    if not gens:
        return ()
    eq = [([g[i] for g in gens], 0) for i in range(cone.dimension)]
    eq.append(([1] * len(gens), 1))
    feasible, Y = lp_feasible(len(gens), eq)
    return None if feasible else tuple(Fraction(-v, Y[-1]) for v in Y[:-1])


def extremal_generators(cone: Cone) -> list[int]:
    """Indices of generators spanning extremal rays of a pointed cone.

    Generators on a common ray are grouped first, by their primitive
    integer vectors, so a repeated ray cannot be reported non-extremal
    just because a positive multiple of it is present.  The distinct rays
    are then swept in generator order, as those integer vectors, while
    an irredundant set C is kept (Clarkson's output-sensitive redundancy
    removal): a ray inside cone(C) is dropped; otherwise it joins C and
    every older member lying in the cone of the rest of C leaves.  Since
    cone(C) equals the cone of the rays seen so far at every step, and a
    pointed cone has exactly one irredundant generating set, C ends as
    the extremal rays.  Each membership LP has |C| columns, not one per
    ray.  A cone that is not pointed raises NotPointedError, so a caller
    learns pointedness from this call without a second LP.

    Every index on an extremal ray is listed, repeats included, so the
    cone of generators 0..p has the cone's extremal rays exactly when
    each of them has a listed index <= p.
    """
    if pointedness_witness(cone) is None:
        raise NotPointedError(
            "extremal rays are only defined for pointed cones"
        )
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, g in enumerate(cone.generators):
        groups.setdefault(_ray_key(g), []).append(j)
    keys = list(groups)

    def inside(i: int, others: list[int]) -> bool:
        return _in_cone(keys[i], [keys[j] for j in others])

    kept: list[int] = []
    for i in range(len(keys)):
        if inside(i, kept):
            continue
        for old in list(kept):
            if inside(old, [j for j in kept if j != old] + [i]):
                kept.remove(old)
        kept.append(i)
    members = list(groups.values())
    return sorted(j for i in kept for j in members[i])


def span_dimension(cone: Cone) -> int:
    """Rank of the generator matrix by exact fraction-free elimination,
    on the generators as the Cone checked them."""
    # imported here, as only cone reports need it, so that a converge
    # command does not compile linalg
    from .linalg import _echelon

    return len(_echelon(cone.generators))


def cone_report(basis: MillerBasis, truncation: int) -> dict:
    """The cone command's report on accumulation_cone_model(basis,
    truncation), keyed by its JSON names.  A pointed cone adds its
    extremal indices, the sorted canonical tuples of its extremal rays,
    and whether generators 0..half_max_m already have those rays."""
    cone = accumulation_cone_model(basis, truncation)
    half_m = max(1, truncation // 2)
    report = {
        "dim": span_dimension(cone),
        "expected_dim": basis.dimension,
        "generator_count": len(cone.generators),
        "half_max_m": half_m,
        "max_m": truncation,
        "pointed": False,
    }
    try:
        idx = extremal_generators(cone)
    except NotPointedError:
        return report
    rays = {j: Ray(cone.generators[j]) for j in idx}
    every = set(rays.values())
    report.update(
        pointed=True,
        extremal_indices=idx,
        extremal_rays=sorted(ray.canonical for ray in every),
        # the half cone has a ray when some index <= half_m lies on it
        extremal_stable={rays[j] for j in idx if j <= half_m} == every,
    )
    return report
