import itertools
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclecones import cones, linalg
from cyclecones.cli import main
from cyclecones.classes import (
    coordinates,
    primitive_heegner_class,
)
from cyclecones.cones import (
    Cone,
    NotPointedError,
    accumulation_cone_model,
    cone_report,
    convergence_scan,
    extremal_generators,
    lp_feasible,
    omega_ray,
    pointedness_witness,
    ray_distance,
    span_dimension,
)
from cyclecones.linalg import det
from cyclecones.qseries import dim_mk, miller_basis
from oracles import (
    brute_extremal,
    brute_member,
    brute_pointed,
    extremal_ray_set,
    fraction_lp_feasible,
    fraction_phase1,
    fraction_ray_distance,
    from_standard,
    is_pointed,
    standard_form,
    two_sweep_stable,
)

small_ints = st.integers(min_value=-8, max_value=8)


def vec(*coords):
    return tuple(coords)


def cone_of(*gens):
    return Cone(tuple(map(tuple, gens)))


def witness(sol):
    """An (X, D) witness as the tuple of Fractions X / D; None kept."""
    if sol is None:
        return None
    X, D = sol
    return tuple(Fraction(v, D) for v in X)


def check_answer(n_vars, rows, answer):
    """Re-check an lp_feasible answer in ints: a witness X / D with X >= 0
    that satisfies every row, or a Farkas certificate Y, one int per row,
    with Y . A_j <= 0 in every column j and Y . b > 0."""
    feasible, sol = answer
    assert type(feasible) is bool
    if feasible:
        X, D = sol
        assert len(X) == n_vars and all(type(v) is int and v >= 0 for v in X)
        assert type(D) is int and D > 0
        for coef, rhs in rows:
            assert sum(c * v for c, v in zip(coef, X)) == rhs * D
    else:
        Y = sol
        assert len(Y) == len(rows) and all(type(y) is int for y in Y)
        assert sum(y * rhs for y, (_, rhs) in zip(Y, rows)) > 0
        for j in range(n_vars):
            assert sum(y * coef[j] for y, (coef, _) in zip(Y, rows)) <= 0


def solve(n_vars, ge=(), eq=(), nonneg=False):
    """lp_feasible on a general system through its standard_form: its
    witness read back as (x, D), or None once the certificate re-checks."""
    width, rows = standard_form(n_vars, ge, eq, nonneg)
    answer = lp_feasible(width, rows)
    check_answer(width, rows, answer)
    feasible, sol = answer
    if not feasible:
        return None
    X, D = sol
    return list(from_standard(n_vars, X, nonneg)), D


# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------


def key(*coords):
    """The primitive int vector of the ray of coords, which names the ray."""
    return tuple(cones._primitive(list(coords)))


def test_canonicalize_examples():
    assert cones._canonical((2, 0)) == (1, 0)
    assert cones._canonical((-3, 1)) == (-1, Fraction(1, 3))
    for u, v in (((0, 0), (1, 0)), ((1, 0), (0, 0)), ((), ())):
        with pytest.raises(ValueError, match="the zero vector spans no ray"):
            ray_distance(u, v)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_ints, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10**6),
)
def test_canonicalize_scale_invariant_and_idempotent(coords, scale):
    if all(c == 0 for c in coords):
        return
    canonical = cones._canonical(coords)
    assert cones._canonical([scale * c for c in coords]) == canonical
    assert cones._canonical(key(*coords)) == canonical
    assert max(abs(c) for c in canonical) == 1
    with pytest.raises(TypeError, match="is not an int"):
        ray_distance(canonical, coords)  # the Fractions are output only


def test_canonicalize_int_coordinates_gives_fractions():
    for coords in ((4, -6), (0, 3), (-7,), (196560, -24)):
        assert all(type(c) is Fraction for c in cones._canonical(coords))
    assert cones._canonical((4, -6)) == (Fraction(2, 3), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_ints, min_size=1, max_size=4),
    st.lists(small_ints, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10**6),
)
def test_ray_key_names_the_oriented_ray(a, b, scale):
    if not any(a) or not any(b):
        return
    k = key(*a)
    assert all(type(x) is int for x in k) and math.gcd(*k) == 1
    assert key(*(scale * c for c in a)) == k
    if len(a) == len(b):
        same_ray = fraction_ray_distance(a, b) == 0
        assert (key(*b) == k) == same_ray


def test_opposite_rays_are_distinct():
    assert key(1, 0) != key(-1, 0)
    assert ray_distance((1, 0), (-1, 0)) == 2


def test_ray_distance_examples():
    assert ray_distance((3, 1), (3, 1)) == 0
    assert ray_distance((6, 2), [3, 1]) == 0
    assert ray_distance((97, 1), (1, 0)) == Fraction(1, 97)
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        ray_distance((1,), (1, 0))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_ints, min_size=3, max_size=3),
    st.lists(small_ints, min_size=3, max_size=3),
    st.lists(small_ints, min_size=3, max_size=3),
)
def test_ray_distance_is_a_metric(a, b, c):
    rays = [x for x in (a, b, c) if any(x)]
    for r in rays:
        assert ray_distance(r, r) == 0
    for r, s in itertools.combinations(rays, 2):
        assert ray_distance(r, s) == ray_distance(s, r)
        assert (ray_distance(r, s) == 0) == (key(*r) == key(*s))
    if len(rays) == 3:
        r, s, t = rays
        assert ray_distance(r, t) <= ray_distance(r, s) + ray_distance(s, t)


@st.composite
def vector_pairs(draw):
    """Two nonzero int vectors of one dimension in 1..6, with small and
    huge entries of both signs; often both are multiples p w and q w of
    one vector w, with p > 0 and q of either sign, so their ratio is a
    Fraction."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        small_ints,
        st.integers(min_value=-10**12, max_value=10**12),
        st.sampled_from([0, 0, 1, -1]),
    )
    vector = st.lists(entry, min_size=n, max_size=n).filter(any)
    u = draw(vector)
    how = draw(st.sampled_from(["independent", "same", "opposite"]))
    if how == "independent":
        return u, draw(vector)
    factor = st.integers(min_value=1, max_value=10**4)
    p, q = draw(factor), draw(factor)
    if how == "opposite":
        q = -q
    return [p * c for c in u], [q * c for c in u]


@settings(max_examples=200, deadline=None)
@given(vector_pairs())
def test_ray_distance_matches_the_fraction_distance(pair):
    u, v = pair
    d = ray_distance(u, v)
    assert type(d) is Fraction
    assert d == fraction_ray_distance(u, v)
    assert (key(*u) == key(*v)) == (d == 0)


@settings(max_examples=200, deadline=None)
@given(vector_pairs(), st.integers(min_value=1, max_value=10**6))
def test_ray_distance_is_invariant_under_positive_scaling(pair, c):
    u, v = pair
    d = ray_distance([c * x for x in u], v)
    assert d == ray_distance(u, v) == ray_distance(u, [c * x for x in v])
    same_ray = fraction_ray_distance(u, v) == 0
    assert (d == 0) == (key(*u) == key(*v)) == same_ray


def _fractions_built(fn) -> int:
    """How many Fractions fn() constructs, counted by a profile hook on
    Fraction's constructors (``_from_coprime_ints`` builds arithmetic
    results from Python 3.12 on)."""
    codes = {Fraction.__new__.__code__}
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        codes.add(coprime.__func__.__code__)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_convergence_scan_builds_one_fraction_per_index():
    basis = miller_basis(66, 1001)
    counts = [
        _fractions_built(
            lambda: convergence_scan(basis, range(1, top + 1))
        )
        for top in (500, 1000)
    ]
    assert counts[1] - counts[0] == 500


def test_omega_ray():
    assert omega_ray(miller_basis(6, 1)) == (-1,)
    assert omega_ray(miller_basis(12, 2)) == (-1, 0)
    assert omega_ray(miller_basis(18, 2)) == (-1, 0)
    assert all(type(c) is int for c in omega_ray(miller_basis(34, 3)))
    with pytest.raises(ValueError):
        omega_ray(miller_basis(2, 1))


# ---------------------------------------------------------------------------
# LP core
# ---------------------------------------------------------------------------


def test_lp_feasible_trivial_cases():
    assert lp_feasible(1, [([1], 1)]) == (True, ([1], 1))
    assert lp_feasible(1, [([0], 1)]) == (False, [1])
    assert lp_feasible(1, [([1], 1), ([1], 2)]) == (False, [-1, 1])
    # the second pivot divides the row of zero entering entry by d = 2,
    # so the first pivot must have rescaled it too
    assert lp_feasible(2, [([2, 0], 1), ([0, 1], 0)]) == (True, ([1, 0], 2))
    assert solve(1, ge=[([1], 1)]) == ([1], 1)
    assert witness(solve(1, ge=[([1], 1)])) == (1,)
    assert solve(1, ge=[([1], 1), ([-1], 0)]) is None
    assert solve(2, eq=[([1, 1], 1)], nonneg=True) is not None
    assert solve(1, eq=[([0], 1)]) is None
    with pytest.raises(ValueError):
        lp_feasible(2, [([1], 1)])
    for eq in ([], [([], 1)]):
        with pytest.raises(ValueError, match="n_vars must be >= 0"):
            lp_feasible(-1, eq)


def test_lp_witness_satisfies_system():
    x, D = solve(
        3,
        ge=[([1, 2, -1], 3), ([0, 1, 1], 2)],
        eq=[([1, 1, 1], 4)],
    )
    assert all(type(v) is int for v in x) and type(D) is int and D > 0
    w = witness((x, D))
    assert w is not None
    assert w[0] + 2 * w[1] - w[2] >= 3
    assert w[1] + w[2] >= 2
    assert sum(w) == 4


@pytest.mark.parametrize("nonneg", [False, True])
def test_lp_empty_system_returns_the_zero_witness(nonneg):
    assert solve(2, nonneg=nonneg) == ([0, 0], 1)
    assert solve(0, nonneg=nonneg) == ([], 1)
    assert lp_feasible(2, []) == (True, ([0, 0], 1))


@pytest.mark.parametrize(
    "rows",
    [
        {"ge": [([0.5], 1)]},
        {"ge": [([1], 0.5)]},
        {"eq": [([Decimal("0.5")], 1)]},
        {"eq": [(["1/2"], 1)]},
        {"eq": [([Fraction(1, 2)], 1)]},
    ],
)
def test_lp_rejects_non_rational_coefficients(monkeypatch, rows):
    def no_pivot(*args):
        raise AssertionError("the simplex was reached")

    monkeypatch.setattr(cones, "_phase1", no_pivot)
    with pytest.raises(TypeError, match="is not an int"):
        solve(1, nonneg=True, **rows)


def test_lp_rejects_a_wrong_witness(monkeypatch):
    monkeypatch.setattr(
        cones, "_phase1", lambda A, b, n: (True, ([0] * n, 1))
    )
    with pytest.raises(ArithmeticError, match="violates row 0"):
        solve(1, eq=[([1], 1)], nonneg=True)
    with pytest.raises(ArithmeticError, match="violates row 1"):
        solve(1, ge=[([1], 0), ([1], 1)])
    # x = -1 satisfies the row, but x >= 0 is part of the system
    monkeypatch.setattr(
        cones, "_phase1", lambda A, b, n: (True, ([-1], 1))
    )
    with pytest.raises(ArithmeticError, match="nonnegative"):
        lp_feasible(1, [([1], -1)])


def test_lp_rejects_a_wrong_witness_with_asserts_stripped(run_optimized):
    test = f"{__file__}::test_lp_rejects_a_wrong_witness"
    proc = run_optimized("-m", "pytest", "-q", "-p", "no:cacheprovider", test)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lp_rejects_a_wrong_certificate(monkeypatch):
    phase1 = cones._phase1

    def declared_infeasible(A, b, n):
        feasible, _ = phase1(A, b, n)
        return False, [1] * len(A)

    # a feasible system declared infeasible: no certificate can check
    monkeypatch.setattr(cones, "_phase1", declared_infeasible)
    with pytest.raises(ArithmeticError, match="certificate"):
        lp_feasible(2, [([1, 1], 1)])
    # x = 1 and x = 2 is infeasible, and (-1, 1) would prove it: (1, 1),
    # (1, -1) and a certificate missing a row do not
    for Y in ([1, 1], [1, -1], [1]):
        monkeypatch.setattr(cones, "_phase1",
                            lambda A, b, n, Y=Y: (False, Y))
        with pytest.raises(ArithmeticError, match="certificate"):
            lp_feasible(1, [([1], 1), ([1], 2)])


def test_lp_rejects_a_wrong_certificate_with_asserts_stripped(run_optimized):
    test = f"{__file__}::test_lp_rejects_a_wrong_certificate"
    proc = run_optimized("-m", "pytest", "-q", "-p", "no:cacheprovider", test)
    assert proc.returncode == 0, proc.stdout + proc.stderr


LP_ENTRIES = [0, 0, 0, 1, -1, 2, -3, 6, -8, 15]


@st.composite
def lp_systems(draw):
    """Small int systems: many zeros, so zero rows and tied ratios are
    common, and negative right-hand sides."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from(LP_ENTRIES)
    row = st.tuples(st.lists(entry, min_size=n, max_size=n), entry)
    ge = draw(st.lists(row, max_size=3))
    eq = draw(st.lists(row, min_size=0 if ge else 1, max_size=3))
    return n, ge, eq


@st.composite
def standard_systems(draw):
    """Small systems {x >= 0 : A x = b} in lp_feasible's own form, with no
    column or no row at times."""
    n = draw(st.integers(0, 4))
    entry = st.sampled_from(LP_ENTRIES)
    row = st.tuples(st.lists(entry, min_size=n, max_size=n), entry)
    return n, draw(st.lists(row, max_size=4))


@settings(max_examples=400, deadline=None)
@given(standard_systems())
@example((2, [([2, 0], 1), ([0, 1], 0)]))
def test_lp_answer_is_a_checked_witness_or_certificate(system):
    n, rows = system
    answer = lp_feasible(n, rows)
    check_answer(n, rows, answer)
    expected = fraction_phase1([c for c, _ in rows], [r for _, r in rows])
    if not rows:
        expected = [0] * n
    feasible, sol = answer
    assert feasible == (expected is not None)
    if feasible:
        assert list(witness(sol)) == expected


@st.composite
def positive_solutions(draw):
    """A square int matrix A, n <= 4, and a point x of positive ints."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return A, draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(positive_solutions())
@example(([[2, 1], [1, 3]], [1, 1]))
def test_witness_denominator_is_the_basis_determinant(system):
    # A x = b with A invertible and every x_j > 0 ends with every
    # structural column basic, so the one scale d of the tableau rows is
    # |det A| and the witness X / d is x
    A, x = system
    assume(det(A) != 0)
    rows = [(a, sum(c * v for c, v in zip(a, x))) for a in A]
    D = abs(det(A))
    assert lp_feasible(len(x), rows) == (True, ([D * v for v in x], D))


@settings(max_examples=400, deadline=None)
@given(lp_systems(), st.booleans())
# Bland's tie-break between two rows of equal ratio decides the vertex here
@example((3, [([0, 3, -4], 0), ([1, 1, 2], 2)], [([-4, 3, -18], -18)]), True)
def test_integer_simplex_matches_the_fraction_tableau(system, nonneg):
    n, ge, eq = system
    expected = fraction_lp_feasible(n, ge, eq, nonneg)
    assert witness(solve(n, ge, eq, nonneg)) == expected


def test_integer_simplex_on_beales_cycling_example():
    # Beale's (1955) LP, on which the textbook simplex cycles: its
    # constraints have zero right-hand sides, so pivots are degenerate.
    # Here its objective is bounded below by a target; the maximum is
    # 1/20.  Under Bland's rule both tableaux must stop at one vertex.
    # Each row is scaled to ints: the first two and the objective by 100,
    # and the objective row once more by the target's denominator.
    le = [
        ([25, -6000, -4, 900], 0),
        ([50, -9000, -2, 300], 0),
        ([0, 0, 1, 0], 1),
    ]
    ge = [([-c for c in coef], -rhs) for coef, rhs in le]
    objective = [75, -15000, 2, -600]

    def at_least(num, den):
        """The row objective >= num / den, in ints."""
        return [den * c for c in objective], 100 * num

    bounds = [([int(i == j) for j in range(4)], 0) for i in range(4)]
    for target, feasible in (((0, 1), True), ((1, 20), True),
                             ((1, 19), False)):
        rows = ge + [at_least(*target)]
        for nonneg, system in ((True, rows), (False, rows + bounds)):
            w = witness(solve(4, ge=system, nonneg=nonneg))
            assert w == fraction_lp_feasible(4, system, (), nonneg)
            assert (w is not None) == feasible
    optimum = witness(solve(4, ge=ge + [at_least(1, 20)], nonneg=True))
    assert optimum == (Fraction(1, 25), 0, 1, 0)


def test_cone_report_lps_match_the_fraction_tableau(capsys, monkeypatch):
    calls = []
    lp, phase1 = cones.lp_feasible, cones._phase1

    def recorded(n_vars, eq):
        answer = lp(n_vars, eq)
        calls.append((n_vars, eq, answer))
        return answer

    def integral(A, b, n):
        # the simplex sees ints only, so no Fraction arithmetic runs in it
        assert all(type(v) is int for row in (*A, b) for v in row)
        return phase1(A, b, n)

    monkeypatch.setattr(cones, "lp_feasible", recorded)
    monkeypatch.setattr(cones, "_phase1", integral)
    assert main(["cone", "--n", "130", "--max-m", "90"]) == 0
    capsys.readouterr()
    # 112 LPs, 27 of them certified infeasible; --max-m 62 now runs 84
    assert len(calls) > 100
    infeasible = 0
    for n_vars, eq, answer in calls:
        check_answer(n_vars, eq, answer)
        feasible, sol = answer
        expected = fraction_lp_feasible(n_vars, (), eq, True)
        assert (witness(sol) if feasible else None) == expected
        infeasible += not feasible
    assert infeasible > 0


def member(v, cone):
    """Membership as the extremality sweep asks it, on coordinate tuples."""
    return cones._in_cone(v, cone.generators)


def test_member_examples():
    c = cone_of((1, 0), (0, 1))
    assert member(vec(2, 3), c)
    assert member(vec(0, 0), c)
    assert not member(vec(-1, 0), c)
    assert not member(vec(1, 0), cone_of((-1, 0)))
    assert not member(vec(1, 0), Cone(()))
    for g in c.generators:
        assert member(g, c)


def test_pointed_examples():
    assert is_pointed(cone_of((1, 0)))
    assert not is_pointed(cone_of((1, 0), (-1, 0)))
    assert is_pointed(cone_of((1, 0), (0, 1), (1, 1)))
    assert not is_pointed(cone_of((1, 0), (0, 1), (-1, -1)))
    assert is_pointed(Cone(()))


def test_pointedness_witness_matches():
    c = cone_of((1, 0), (0, 1), (1, 1))
    y = pointedness_witness(c)
    for g in c.generators:
        assert sum(a * b for a, b in zip(y, g)) >= 1
    assert pointedness_witness(cone_of((1, 0), (-1, 0))) is None
    assert pointedness_witness(Cone(())) == ()


def test_extremal_examples():
    assert extremal_generators(cone_of((1, 0), (0, 1), (1, 1))) == [0, 1]
    assert extremal_generators(cone_of((1, 0))) == [0]
    # a repeated ray is not spuriously non-extremal
    assert extremal_generators(cone_of((1, 0), (2, 0), (0, 1))) == [0, 1, 2]
    with pytest.raises(NotPointedError):
        extremal_generators(cone_of((1, 0), (-1, 0)))
    assert issubclass(NotPointedError, ValueError)


def test_span_dimension_examples():
    assert span_dimension(cone_of((1, 0))) == 1
    assert span_dimension(cone_of((1, 0), (2, 0))) == 1
    assert span_dimension(cone_of((1, 0), (0, 1), (1, 1))) == 2
    assert span_dimension(Cone(())) == 0


def test_span_dimension_does_not_recheck_the_generators(monkeypatch):
    # a Cone checked its generators with _ints when it was built
    calls = []
    real = linalg._ints

    def counted(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(linalg, "_ints", counted)
    assert span_dimension(cone_of((1, 0, 2), (2, 0, 4), (0, 1, 1))) == 2
    assert calls == []


def test_ray_and_cone_compare_their_one_field():
    # a ray compares as its primitive int vector
    assert key(4, -2) == (2, -1) != key(-1, 2)
    assert len({key(4, -2), key(2, -1), key(6, -3)}) == 1
    c = cone_of((1, 0), (0, 1))
    same = Cone(c.generators)
    assert c == same and hash(c) == hash(same)
    assert c != cone_of((0, 1), (1, 0))
    # a cone takes no weight tag
    with pytest.raises(TypeError):
        Cone(c.generators, 18)


def test_cone_rejects_bad_generators():
    with pytest.raises(ValueError):
        cone_of((0, 0))
    with pytest.raises(ValueError):
        Cone((vec(1, 0), vec(1, 0, 0)))


def test_lp_agrees_with_bruteforce_on_random_small_cones():
    rng = random.Random(23)
    for _ in range(400):
        d = rng.choice([1, 2, 3])
        gens = []
        while len(gens) < rng.randint(1, 6):
            g = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(g):
                gens.append(g)
        cone = cone_of(*gens)
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        assert member(vec(*v), cone) == brute_member(v, gens)
        assert is_pointed(cone) == brute_pointed(gens)


def test_extremal_agrees_with_bruteforce_on_random_pointed_cones():
    # every generator is flipped to the positive side of a random
    # functional y, so each cone is pointed; positive multiples repeat rays
    rng = random.Random(31)
    for _ in range(600):
        d = rng.randint(1, 4)
        y = [rng.randint(-3, 3) for _ in range(d)]
        if not any(y):
            continue
        gens = []
        for _ in range(rng.randint(1, 8)):
            if gens and rng.random() < 0.25:
                # before or after the generator it repeats
                scale = rng.choice((2, 3, 5))
                gens.insert(rng.randint(0, len(gens)),
                            tuple(scale * c for c in rng.choice(gens)))
                continue
            g = [rng.randint(-2, 2) for _ in range(d)]
            s = sum(a * b for a, b in zip(y, g))
            if s != 0:
                gens.append(tuple(g if s > 0 else [-c for c in g]))
        if gens:
            assert extremal_generators(cone_of(*gens)) == brute_extremal(gens)


# ---------------------------------------------------------------------------
# convergence scans and the truncated accumulation cone
# ---------------------------------------------------------------------------


def test_scan_weight_6_all_zero():
    scan = convergence_scan(miller_basis(6, 40), range(1, 40))
    assert all(d == 0 for _, d in scan)


def test_scan_weight_18_frozen_values():
    basis = miller_basis(18, 12)
    scan = dict(convergence_scan(basis, [1, 2, 3, 4, 5, 11]))
    assert scan[1] == 1
    assert scan[2] == Fraction(22, 3591)
    assert scan[3] == Fraction(17, 335616)
    assert scan[4] == Fraction(49237, 3750296760)
    assert scan[5] == Fraction(24425, 11896215552)
    assert scan[11] == Fraction(62801519, 27584293159584000)


def test_scan_full_heegner_differs_at_square_indices():
    basis = miller_basis(18, 12)
    full = dict(convergence_scan(basis, [4, 9], primitive=False))
    assert full[4] == Fraction(18464, 1406361285)
    assert full[9] == Fraction(4103241, 404507296686080)
    prim = dict(convergence_scan(basis, [4, 9]))
    assert prim[4] != full[4] and prim[9] != full[9]


def test_scan_weight_18_broad_decay_with_fluctuation():
    # decay is broad, not termwise: consecutive primes can move up
    # (exact computation; the thinned subsequence below is monotone)
    basis = miller_basis(18, 201)
    scan = dict(convergence_scan(basis, range(1, 201)))
    assert scan[19] < scan[23]  # a real fluctuation, frozen from the scan
    thinned = [scan[m] for m in (11, 31, 101, 199)]
    assert all(a > b for a, b in zip(thinned, thinned[1:]))
    bound = Fraction(1, 10**6)
    assert all(scan[m] < bound for m in range(100, 201))


def test_accumulation_cone_small():
    basis = miller_basis(18, 52)
    cone = accumulation_cone_model(basis, 50)
    assert len(cone.generators) == 51
    assert span_dimension(cone) == 2
    assert is_pointed(cone)
    for g in cone.generators:
        assert member(g, cone)

    cone6 = accumulation_cone_model(miller_basis(6, 21), 20)
    assert span_dimension(cone6) == 1
    assert extremal_ray_set(cone6) == {(-1,)}
    # weight 2 has no forms, so no coordinates
    with pytest.raises(ValueError, match="empty form space"):
        accumulation_cone_model(miller_basis(2, 21), 20)


def test_cone_report_of_a_cone_with_a_line():
    report = cone_report(miller_basis(4, 31), 30)
    assert report == {
        "dim": 1,
        "expected_dim": 1,
        "generator_count": 31,
        "half_max_m": 15,
        "max_m": 30,
        "pointed": False,
    }


def test_cone_report_of_a_pointed_cone():
    basis = miller_basis(34, 201)
    report = cone_report(basis, 200)
    cone = accumulation_cone_model(basis, 200)
    assert report["dim"] == report["expected_dim"] == 3
    assert report["generator_count"] == 201 and report["half_max_m"] == 100
    assert report["pointed"] is True
    assert report["extremal_indices"] == [1, 2, 3]
    rays = report["extremal_rays"]
    assert rays == sorted(map(cones._canonical, extremal_ray_set(cone)))
    assert all(type(c) is Fraction for ray in rays for c in ray)
    assert report["extremal_stable"] == two_sweep_stable(cone, 100)


def test_cone_report_reads_the_cone_model_by_its_global_name(monkeypatch):
    # a test may hand the report any cone through accumulation_cone_model
    cone = cone_of((1, 1), (1, -1), (2, 2), (1, 0))
    monkeypatch.setattr(cones, "accumulation_cone_model",
                        lambda basis, m: cone)
    report = cone_report(miller_basis(6, 3), 2)
    assert report["generator_count"] == 4 and report["dim"] == 2
    assert report["extremal_indices"] == [0, 1, 2]
    assert report["extremal_stable"] is True
    assert report["extremal_stable"] == two_sweep_stable(cone, 1)


@pytest.mark.parametrize("k, max_m", [(6, 1), (18, 1), (18, 2), (18, 9), (34, 40)])
def test_half_cone_is_a_prefix_of_the_cone(k, max_m):
    # the cone report's extremal_stable reads the half cone as this
    # prefix: the cone's extremal generators of index <= half_m
    basis = miller_basis(k, max(max_m + 1, dim_mk(k)))
    cone = accumulation_cone_model(basis, max_m)
    half_m = max(1, max_m // 2)
    half = accumulation_cone_model(basis, half_m)
    prefix = Cone(cone.generators[:half_m + 1])
    assert prefix == half


def test_accumulation_cone_rank_stabilizes():
    basis = miller_basis(34, 40)
    d = dim_mk(34)
    ranks = [
        span_dimension(accumulation_cone_model(basis, m))
        for m in range(1, 8)
    ]
    assert ranks == sorted(ranks)
    assert ranks[d - 1] == d  # stabilizes by the dimension itself
    assert all(r == d for r in ranks[d - 1:])


def test_accumulation_cone_pointed_with_evaluation_witness():
    # the negated Eisenstein evaluation functional separates strictly;
    # in the echelon basis the Miller coordinates of E_k are its first
    # d coefficients
    from cyclecones.qseries import eisenstein

    basis = miller_basis(18, 32)
    cone = accumulation_cone_model(basis, 30)
    coords_e = eisenstein(18, 32)[: dim_mk(18)]
    for g in cone.generators:
        assert -sum(a * b for a, b in zip(g, coords_e)) > 0
    assert is_pointed(cone)


def test_class_ray_converges_to_positive_axis_at_weight_0_mod_4():
    # non-physical weights flip the Eisenstein sign: limit is +e_0
    basis = miller_basis(16, 130)
    u = coordinates(primitive_heegner_class(128), basis)
    assert cones._canonical(u)[0] == 1


def test_extremal_sweep_work_and_observed_extremal_set(monkeypatch):
    columns = []
    lp = cones.lp_feasible

    def counted(n_vars, *args, **kwargs):
        columns.append(n_vars)
        return lp(n_vars, *args, **kwargs)

    monkeypatch.setattr(cones, "lp_feasible", counted)
    cone = accumulation_cone_model(miller_basis(18, 201), 200)
    assert extremal_generators(cone) == [1, 2]
    # one is_pointed LP of 201 columns plus membership LPs of about d
    # columns each; one LP per ray against all others totals 40,401
    assert sum(columns) <= 1000
    # an observation the code does not rely on: the extremal set is
    # P_1..P_d and the Kahler generator (index 0) is never extremal
    for k in (18, 26, 34):
        cone = accumulation_cone_model(miller_basis(k, 101), 100)
        assert extremal_generators(cone) == list(range(1, dim_mk(k) + 1))
