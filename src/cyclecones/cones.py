"""Exact rational ray and cone geometry.

Rays are oriented (positive scaling only) and carry a canonical
representative normalized so the largest absolute coordinate is 1, which
keeps every computation inside rational arithmetic.  Cone questions
(pointedness, membership, extremality) are decided by an exact simplex
with Bland's rule; no floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction

from .classes import (
    ClassVector,
    coordinates,
    heegner_class,
    omega_class,
    primitive_heegner_class,
)
from .linalg import rank
from .numtheory import _Record
from .qseries import MillerBasis, dim_mk, miller_basis

__all__ = [
    "Ray",
    "Cone",
    "NotPointedError",
    "canonicalize",
    "ray_distance",
    "omega_ray",
    "class_ray",
    "convergence_scan",
    "accumulation_cone_model",
    "is_pointed",
    "pointedness_witness",
    "member",
    "extremal_generators",
    "extremal_rays",
    "span_dimension",
    "lp_feasible",
]


class Ray(_Record, compare=("canonical",)):
    """Canonical representative of an oriented ray: max |coordinate| = 1.

    Two rays are equal exactly when their canonical vectors are equal; the
    weight is a bookkeeping tag and does not enter comparisons.
    """

    __slots__ = ("canonical", "weight")

    def __init__(
        self, canonical: tuple[Fraction, ...], weight: int | None = None
    ) -> None:
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "weight", weight)

    @property
    def dimension(self) -> int:
        return len(self.canonical)


class Cone(_Record, compare=("generators",)):
    """Finitely generated rational cone, kept as its generator list; the
    weight is a tag and does not enter comparisons."""

    __slots__ = ("generators", "weight")

    def __init__(
        self, generators: tuple[ClassVector, ...], weight: int | None = None
    ) -> None:
        dims = {g.dimension for g in generators}
        if len(dims) > 1:
            raise ValueError("generators must share one dimension")
        if any(g.is_zero() for g in generators):
            raise ValueError("zero generators are not allowed")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "weight", weight)

    @property
    def dimension(self) -> int:
        return self.generators[0].dimension if self.generators else 0


class NotPointedError(ValueError):
    """Raised when a question needs a pointed cone and the cone contains a
    line."""


def canonicalize(v: ClassVector) -> Ray:
    """Scale by the positive rational 1/max|coord|; orientation preserved."""
    if v.is_zero():
        raise ValueError("cannot canonicalize the zero vector")
    m = max(abs(c) for c in v.coords)
    return Ray(tuple(c / m for c in v.coords), v.weight)


def ray_distance(r1: Ray, r2: Ray) -> Fraction:
    """L-infinity distance between canonical representatives."""
    if r1.dimension != r2.dimension:
        raise ValueError(
            f"dimension mismatch: {r1.dimension} vs {r2.dimension}"
        )
    return max(abs(a - b) for a, b in zip(r1.canonical, r2.canonical))


def omega_ray(k: int, basis: MillerBasis | None = None) -> Ray:
    """Ray of the Kähler class: -e_0 in Miller-dual coordinates."""
    d = dim_mk(k)
    if d < 1:
        raise ValueError(f"weight {k} has an empty form space")
    if basis is None:
        basis = miller_basis(k, d)
    return canonicalize(coordinates(omega_class(k), basis))


def class_ray(combo, basis: MillerBasis) -> Ray:
    """Canonical ray of a functional's coordinate vector."""
    return canonicalize(coordinates(combo, basis))


def _scan_basis(k: int, min_precision: int) -> MillerBasis:
    return miller_basis(k, max(min_precision, dim_mk(k), 1))


def convergence_scan(
    k: int,
    m_set,
    primitive: bool = True,
    basis: MillerBasis | None = None,
) -> list[tuple[int, Fraction]]:
    """Exact ray distances toward the Kähler ray, one row per index m.

    For each m the (primitive) Heegner class ray is compared with the
    omega ray in the L-infinity ray metric.  The distances tend to 0 for
    k = 2 mod 4; for k = 0 mod 4 the Eisenstein sign flips and the limit
    ray is +e_0 instead, so distances approach 2 (use class_ray to inspect
    the limit actually attained).
    """
    m_set = list(m_set)
    if any(m < 1 for m in m_set):
        raise ValueError("scan indices must be >= 1")
    if basis is None:
        basis = _scan_basis(k, max(m_set, default=0) + 1)
    target = omega_ray(k, basis)
    build = primitive_heegner_class if primitive else heegner_class
    out = []
    for m in m_set:
        ray = class_ray(build(m, k), basis)
        out.append((m, ray_distance(ray, target)))
    return out


def accumulation_cone_model(
    k: int, truncation: int, basis: MillerBasis | None = None
) -> Cone:
    """Truncated model of the accumulation cone at weight k.

    Generated by the omega class together with the primitive Heegner
    classes of index 1..truncation, all in Miller-dual coordinates.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    if dim_mk(k) < 1:
        raise ValueError(f"weight {k} has an empty form space")
    if basis is None:
        basis = _scan_basis(k, truncation + 1)
    gens = [coordinates(omega_class(k), basis)]
    for m in range(1, truncation + 1):
        gens.append(coordinates(primitive_heegner_class(m, k), basis))
    return Cone(tuple(gens), k)


# ---------------------------------------------------------------------------
# Exact LP core: Phase-I simplex over Fractions with Bland's rule.
# ---------------------------------------------------------------------------


def _phase1(A, b):
    """Feasibility of {A x = b, x >= 0}: witness list or None.

    Dense Phase-I simplex: one artificial variable per row, minimize their
    sum, Bland's rule for both entering and leaving choices (no cycling).
    """
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])
    rows = []
    for i in range(m):
        coef = [Fraction(x) for x in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            coef = [-x for x in coef]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows.append(coef + art + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m
    # reduced costs for minimizing the artificial sum
    red = [Fraction(0)] * (total + 1)
    for j in range(n, total):
        red[j] = Fraction(1)
    for row in rows:
        for j in range(total + 1):
            red[j] -= row[j]

    while True:
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][total] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    leave, best = i, ratio
        if leave is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        prow = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        if red[enter] != 0:
            f = red[enter]
            red = [x - f * y for x, y in zip(red, prow)]
        basis[leave] = enter

    residual = sum(
        (rows[i][total] for i in range(m) if basis[i] >= n), Fraction(0)
    )
    if residual != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][total]
    return x


def lp_feasible(n_vars: int, ge=(), eq=(), nonneg: bool = False):
    """Exact feasibility of a rational linear system; witness or None.

    ``ge`` rows are pairs (coefficients, rhs) meaning coeffs . x >= rhs,
    ``eq`` rows mean coeffs . x == rhs.  Variables are free unless
    ``nonneg`` is set.  A returned witness is verified against every row
    before being handed back.
    """
    ge = [(list(map(Fraction, c)), Fraction(r)) for c, r in ge]
    eq = [(list(map(Fraction, c)), Fraction(r)) for c, r in eq]
    for coef, _ in ge + eq:
        if len(coef) != n_vars:
            raise ValueError(
                f"row length {len(coef)} does not match {n_vars} variables"
            )
    width = n_vars if nonneg else 2 * n_vars
    n_slack = len(ge)

    def expand(coef):
        base = coef if nonneg else coef + [-c for c in coef]
        return base + [Fraction(0)] * n_slack

    A, b = [], []
    for coef, rhs in eq:
        A.append(expand(coef))
        b.append(rhs)
    for i, (coef, rhs) in enumerate(ge):
        row = expand(coef)
        row[width + i] = Fraction(-1)
        A.append(row)
        b.append(rhs)
    sol = _phase1(A, b)
    if sol is None:
        return None
    if nonneg:
        x = sol[:n_vars]
    else:
        x = [sol[j] - sol[n_vars + j] for j in range(n_vars)]
    for i, (coef, rhs) in enumerate(eq):
        if sum(c * v for c, v in zip(coef, x)) != rhs:
            raise ArithmeticError(f"LP witness violates equality row {i}")
    for i, (coef, rhs) in enumerate(ge):
        if sum(c * v for c, v in zip(coef, x)) < rhs:
            raise ArithmeticError(f"LP witness violates inequality row {i}")
    return tuple(x)


def member(v: ClassVector, cone: Cone) -> bool:
    """Exact test whether v is a nonnegative rational combination of the
    generators."""
    if cone.generators and v.dimension != cone.dimension:
        raise ValueError(
            f"dimension mismatch: {v.dimension} vs {cone.dimension}"
        )
    if v.is_zero():
        return True
    if not cone.generators:
        return False
    d = v.dimension
    gens = cone.generators
    eq = [
        ([g.coords[i] for g in gens], v.coords[i])
        for i in range(d)
    ]
    return lp_feasible(len(gens), eq=eq, nonneg=True) is not None


def is_pointed(cone: Cone) -> bool:
    """Whether the cone contains no line.

    Equivalent to the existence of a rational y with <y, g> >= 1 for every
    generator g; decided through the exact LP on the other side of
    Gordan's alternative (no nonzero nonnegative combination of the
    generators vanishes), which has only dimension+1 rows.  Use
    pointedness_witness for the separating functional itself.
    """
    if not cone.generators:
        return True
    d = cone.dimension
    gens = cone.generators
    eq = [([g.coords[i] for g in gens], Fraction(0)) for i in range(d)]
    eq.append(([Fraction(1)] * len(gens), Fraction(1)))
    return lp_feasible(len(gens), eq=eq, nonneg=True) is None


def pointedness_witness(cone: Cone):
    """Rational y with <y, g> >= 1 for all generators, or None."""
    if not cone.generators:
        return ()
    ge = [(list(g.coords), Fraction(1)) for g in cone.generators]
    return lp_feasible(cone.dimension, ge=ge)


def extremal_generators(cone: Cone) -> list[int]:
    """Indices of generators spanning extremal rays of a pointed cone.

    Generators on a common ray are grouped first, so a repeated ray cannot
    be reported non-extremal just because a positive multiple of it is
    present.  The distinct rays are then swept in generator order while
    an irredundant set C is kept (Clarkson's output-sensitive redundancy
    removal): a ray inside cone(C) is dropped; otherwise it joins C and
    every older member lying in the cone of the rest of C leaves.  Since
    cone(C) equals the cone of the rays seen so far at every step, and a
    pointed cone has exactly one irredundant generating set, C ends as
    the extremal rays.  Each membership LP has |C| columns, not one per
    ray.  A cone that is not pointed raises NotPointedError, so a caller
    learns pointedness from this call without a second LP.
    """
    if not is_pointed(cone):
        raise NotPointedError(
            "extremal rays are only defined for pointed cones"
        )
    groups: dict[Ray, list[int]] = {}
    for j, g in enumerate(cone.generators):
        groups.setdefault(canonicalize(g), []).append(j)

    def inside(ray: Ray, others: list[Ray]) -> bool:
        gens = tuple(ClassVector(cone.weight, r.canonical) for r in others)
        rep = ClassVector(cone.weight, ray.canonical)
        return member(rep, Cone(gens, cone.weight))

    kept: list[Ray] = []
    for ray in groups:
        if inside(ray, kept):
            continue
        for old in list(kept):
            if inside(old, [r for r in kept if r != old] + [ray]):
                kept.remove(old)
        kept.append(ray)
    return sorted(j for ray in kept for j in groups[ray])


def extremal_rays(cone: Cone) -> set[Ray]:
    """Canonical rays of the extremal generators."""
    idx = extremal_generators(cone)
    return {canonicalize(cone.generators[j]) for j in idx}


def span_dimension(cone: Cone) -> int:
    """Rank of the generator matrix by exact Gaussian elimination."""
    if not cone.generators:
        return 0
    return rank([g.coords for g in cone.generators])
