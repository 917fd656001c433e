"""Brute-force oracles shared by the cone/lattice/acceptance tests.

``rref``, ``fraction_det`` and ``fraction_gram_signature`` are the
Fraction eliminations that the integer ``linalg`` must agree with.
Except for ``fraction_phase1``, the Fraction tableau whose feasibility
and witness the integer simplex must reproduce, the others stay deliberately
independent of the simplex: membership runs over Caratheodory subsets
solved by row reduction, extremality tests each ray against all the
others by that membership, pointedness enumerates minimal one-signed
relations, and the GL_2(Z)/GL_n(Z) samplers multiply elementary
matrices.  Pointedness as a bool and the set of extremal rays are read
off pointedness_witness and extremal_generators.  The cone report's
extremal_stable has its former two-sweep answer, which runs the
extremality sweep on the half cone as well.  The weight-18 ray
distances have a closed form built from Delta*E_6 in plain ints,
independent of the q-series module, and Delta itself comes from the
Jacobi product.  Miller bases have a second
construction: the monomials E_4^a E_6^b, powered in plain ints, reduced to
echelon form by Fraction row reduction.  E_k has a brute-force
divisor-sum construction with an Akiyama-Tanigawa Bernoulli number, and
the primitive Heegner class P_m its square-divisor Moebius sum.  The
divisor sum, the Moebius function and the square divisors are written
from their definitions, by trial division up to the square root, without
numtheory.factorize; H_m is rebuilt from the P_{m/t^2}.  The Eisenstein
identity scan has its former Fraction version, which reads E_k as a
Fraction q-expansion and builds every side and comparison in Fractions,
with these divisor functions on the closed-form side.  The L-infinity ray distance has its Fraction version, which
scales each ray to max |coordinate| = 1 and subtracts coordinate by
coordinate, and a functional is applied to a form directly on its
q-expansion.  The congruence
u^t T u of a binary moment matrix is two 2x2 products.
The CLI's identities output has its former printing:
the CSV as one print of the joined lines, the JSON as one
json.dumps(sort_keys=True, indent=2) of the whole document.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

from cyclecones.classes import primitive_heegner_class, weight_for_signature
from cyclecones.cones import (
    Cone,
    extremal_generators,
    pointedness_witness,
)
from cyclecones.lattice import HalfIntegralMatrix
from cyclecones.numtheory import zeta_negative
from cyclecones.qseries import MillerBasis, eisenstein


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over Fractions; zero rows dropped.  The
    reference for the fraction-free ``linalg.rank``."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return []
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == len(work):
            break
        src = next(
            (r for r in range(pivot_row, len(work)) if work[r][col] != 0), None
        )
        if src is None:
            continue
        work[pivot_row], work[src] = work[src], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [c * inv for c in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
    return work[:pivot_row]


def fraction_det(rows) -> Fraction:
    """Determinant of a square rational matrix by Fraction elimination.
    The reference for the fraction-free ``linalg.det``."""
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


def fraction_gram_signature(gram) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric rational matrix by
    Fraction congruence reduction; zero eigenvalues count in neither
    entry.  The reference for the integer ``linalg.gram_signature``."""
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


def brute_member(v, gens):
    """v lies in the cone iff it is a nonnegative combination of some
    linearly independent subset of at most dim generators."""
    d = len(v)
    if all(c == 0 for c in v):
        return True
    for size in range(1, d + 1):
        for sub in itertools.combinations(gens, size):
            rows = [
                [Fraction(sub[j][i]) for j in range(size)] + [Fraction(v[i])]
                for i in range(d)
            ]
            red = rref(rows)
            piv = {}
            consistent = True
            for row in red:
                nz = next((j for j, x in enumerate(row) if x != 0), None)
                if nz is None:
                    continue
                if nz == size:
                    consistent = False
                    break
                piv[nz] = row[size]
            if not consistent or len(piv) < size:
                continue  # inconsistent, or dependent (covered at smaller size)
            sol = [piv[j] for j in range(size)]
            if all(x >= 0 for x in sol) and all(
                sum(sub[j][i] * sol[j] for j in range(size)) == v[i]
                for i in range(d)
            ):
                return True
    return False


def brute_extremal(gens):
    """Sorted indices of generators on extremal rays: generators are grouped
    by ray (scaled to max |coordinate| 1), and a ray is kept when
    brute_member does not place it in the cone of the other rays."""
    groups = {}
    for j, g in enumerate(gens):
        top = max(abs(Fraction(c)) for c in g)
        groups.setdefault(tuple(Fraction(c) / top for c in g), []).append(j)
    out = []
    for ray, idx in groups.items():
        if not brute_member(ray, [r for r in groups if r != ray]):
            out.extend(idx)
    return sorted(out)


def brute_pointed(gens):
    """Not pointed iff some minimal subset carries a one-signed nonzero
    linear relation; minimal relations live on subsets of size <= dim + 1
    whose nullspace is one-dimensional."""
    d = len(gens[0])
    for size in range(2, min(len(gens), d + 1) + 1):
        for sub in itertools.combinations(gens, size):
            rows = rref(
                [[Fraction(sub[j][i]) for j in range(size)] for i in range(d)]
            )
            if size - len(rows) != 1:
                continue
            pivcols = [
                next(j for j, x in enumerate(row) if x != 0) for row in rows
            ]
            free = next(j for j in range(size) if j not in pivcols)
            w = [Fraction(0)] * size
            w[free] = Fraction(1)
            for row, pc in zip(rows, pivcols):
                w[pc] = -row[free]
            if all(x > 0 for x in w) or all(x < 0 for x in w):
                return False
    return True


def is_pointed(cone):
    """Whether the cone contains no line: pointedness_witness finds a
    separating functional."""
    return pointedness_witness(cone) is not None


def extremal_ray_set(cone):
    """The set of primitive int vectors on a pointed cone's extremal
    rays."""
    gens = cone.generators
    return {
        tuple(c // math.gcd(*gens[j]) for c in gens[j])
        for j in extremal_generators(cone)
    }


def two_sweep_stable(cone, half_m):
    """Whether the half cone, generators 0..half_m of the pointed cone,
    has the cone's extremal rays, each set from its own sweep."""
    return extremal_ray_set(Cone(cone.generators[:half_m + 1])) == (
        extremal_ray_set(cone)
    )


B18 = Fraction(43867, 798)  # Bernoulli number B_18, written out
C18 = -36 / B18  # q^1 coefficient of E_18


def fraction_phase1(A, b):
    """Feasibility of {A x = b, x >= 0}: witness list or None.

    Dense Phase-I simplex over Fractions: one artificial variable per row,
    minimize their sum, Bland's rule for both entering and leaving choices
    (no cycling).  The reference for ``cones._phase1``, whose integer-row
    tableau must reproduce its feasibility and witness.
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


def standard_form(n_vars, ge=(), eq=(), nonneg=False):
    """A general system written in ``lp_feasible``'s form {x >= 0 : A x = b}.

    Free variables are split as x = x+ - x-, and each ``ge`` row gets one
    surplus column of coefficient -1, after the ``eq`` rows.  Returns the
    number of columns and the rows; ``from_standard`` reads a solution
    back.
    """
    ge, eq = list(ge), list(eq)
    rows = []
    for i, (coef, rhs) in enumerate(eq + ge):
        row = list(coef)
        if not nonneg:
            row += [-c for c in row]
        surplus = [0] * len(ge)
        if i >= len(eq):
            surplus[i - len(eq)] = -1
        rows.append((row + surplus, rhs))
    return (n_vars if nonneg else 2 * n_vars) + len(ge), rows


def from_standard(n_vars, x, nonneg=False):
    """The general system's solution from a solution x of its
    ``standard_form``."""
    if nonneg:
        return tuple(x[:n_vars])
    return tuple(x[j] - x[n_vars + j] for j in range(n_vars))


def fraction_lp_feasible(n_vars, ge=(), eq=(), nonneg=False):
    """A general system's ``standard_form`` solved by ``fraction_phase1``:
    the witness (or None) read back in Fractions."""
    _, rows = standard_form(n_vars, ge, eq, nonneg)
    if not rows:
        return (Fraction(0),) * n_vars
    sol = fraction_phase1([coef for coef, _ in rows], [rhs for _, rhs in rows])
    return None if sol is None else from_standard(n_vars, sol, nonneg)


def fraction_ray_distance(u, v):
    """L-infinity distance between the canonical representatives of two
    nonzero rational vectors of one length, built in Fractions: the
    reference for cones.ray_distance, which stays in ints."""
    cu, cv = (
        [Fraction(c) / max(abs(x) for x in w) for c in w] for w in (u, v)
    )
    return max(abs(a - b) for a, b in zip(cu, cv))


def evaluate(terms, f):
    """Apply the class with the terms (m, a_m) to a form: sum_m a_m f[m],
    f the tuple of the form's q-coefficients; the reference for
    classes.coordinates, which pairs the class with a Miller basis."""
    for m, _ in terms:
        if not 0 <= m < len(f):
            raise ValueError(f"index {m} outside precision {len(f)}")
    return sum(a * f[m] for m, a in terms)


def bernoulli_akiyama_tanigawa(n):
    """Bernoulli number B_n by the Akiyama-Tanigawa triangle, adjusted to
    B_1 = -1/2; independent of numtheory.bernoulli's recurrence."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return -a[0] if n == 1 else a[0]


def eisenstein_ints(k, precision):
    """E_k for even k >= 4 as 1 + c sum sigma_(k-1)(n) q^n with
    c = -2k/B_k from the Akiyama-Tanigawa triangle and the divisor sums by
    brute force over every d <= n.  The coefficients are plain ints when c
    is an integer (c = 240 for E_4, -504 for E_6), Fractions otherwise."""
    c = Fraction(-2 * k) / bernoulli_akiyama_tanigawa(k)
    if c.denominator == 1:
        c = c.numerator
    return (1,) + tuple(
        c * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        for n in range(1, precision)
    )


def divisors(m):
    """The divisors of m >= 1 in ascending order, each pair (d, m/d) found
    from its member d <= isqrt(m)."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def sigma(s, m):
    """sigma_s(m), the sum of d^s over the divisors d of m; the reference
    for numtheory._sigma, which multiplies one factor per prime power."""
    return sum(d**s for d in divisors(m))


def prime_divisors(m):
    """The primes dividing m, in ascending order."""
    return [p for p in divisors(m)[1:]
            if all(p % q for q in range(2, math.isqrt(p) + 1))]


def moebius(t):
    """mu(t): 0 when some square d^2 > 1 divides t, else -1 to the number
    of primes dividing t."""
    if any(t % (d * d) == 0 for d in range(2, math.isqrt(t) + 1)):
        return 0
    return (-1) ** len(prime_divisors(t))


def square_divisors(m):
    """All t >= 1 with t^2 | m, in ascending order, by enumeration."""
    return [t for t in range(1, math.isqrt(m) + 1) if m % (t * t) == 0]


def _class_terms(acc):
    """The class sum_i acc[i] c_i as its terms (i, acc[i]), sorted by
    index, with the zero coefficients dropped."""
    return tuple(sorted((i, a) for i, a in acc.items() if a))


def heegner_from_primitive(m):
    """H_m rebuilt as the sum of classes.primitive_heegner_class(m/t^2)
    over the square divisors t of m, expanded into coefficient
    functionals; Moebius inversion makes it c_m alone."""
    acc = {}
    for t in square_divisors(m):
        for i, a in primitive_heegner_class(m // (t * t)):
            acc[i] = acc.get(i, 0) + a
    return _class_terms(acc)


def moebius_primitive_class(m):
    """P_m = sum over t^2 | m of mu(t) c_{m/t^2}, built by enumerating the
    square divisors and calling moebius for each; the reference for
    classes.primitive_heegner_class, which reads the terms off one
    factorization of m."""
    acc = {}
    for t in square_divisors(m):
        mu = moebius(t)
        if mu:
            idx = m // (t * t)
            acc[idx] = acc.get(idx, 0) + mu
    return _class_terms(acc)


def fraction_identity_scan(n, max_m):
    """Both Eisenstein identity checks for 1 <= m <= max_m as rows
    (check, m, lhs, rhs, equal) of Fractions, coefficient before primitive
    at each m: c_m(E_k) against 2 sigma_{n/2}(m) / zeta(-n/2), and the
    square-divisor Moebius sum of c_{m/t^2}(E_k) against the Euler product
    (2 m^{n/2} / zeta(-n/2)) prod_{p | m} (1 + p^{-n/2}), all in Fractions.
    The reference for classes.eisenstein_identity_scan, which runs in ints."""
    s = n // 2
    coeffs = eisenstein(s + 1, max_m + 1)
    zeta = zeta_negative(s)
    out = []
    for m in range(1, max_m + 1):
        lhs, rhs = coeffs[m], 2 * sigma(s, m) / zeta
        out.append(("coefficient", m, lhs, rhs, lhs == rhs))
        lhs = sum(moebius(t) * coeffs[m // (t * t)] for t in square_divisors(m))
        rhs = Fraction(2 * m**s) / zeta
        for p in prime_divisors(m):
            rhs *= 1 + Fraction(1, p**s)
        out.append(("primitive", m, lhs, rhs, lhs == rhs))
    return out


def print_csv_text(rows) -> str:
    """What the former ``cli._print_csv(rows)`` printed: every row joined
    by commas, the lines joined in memory and printed at once."""
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def identities_csv_text(n, rows) -> str:
    """The former ``identities`` CSV for scan rows (check, m, lhs, rhs,
    equal) at signature n."""
    return print_csv_text(
        [["check", "m", "n", "lhs", "rhs", "equal"]]
        + [
            [check, m, n, lhs, rhs, "true" if equal else "false"]
            for check, m, lhs, rhs, equal in rows
        ]
    )


def identities_json_text(n, max_m, rows) -> str:
    """The former ``identities --format json`` output for scan rows at
    signature n: the whole document through one json.dumps, printed."""
    doc = {
        "all_equal": all(equal for *_, equal in rows),
        "max_m": max_m,
        "n": n,
        "physical": n % 8 == 2,
        "records": [
            dict(check=check, equal=equal, lhs=lhs, m=m, rhs=rhs)
            for check, m, lhs, rhs, equal in rows
        ],
        "weight": weight_for_signature(n),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def int_product(a, b):
    """Truncated product of integer q-expansions of equal length."""
    return tuple(
        sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))
    )


@functools.lru_cache(maxsize=None)
def _eisenstein_power(k, e, precision):
    """E_k^e, cached so that a sweep over weights reuses the powers."""
    if e == 0:
        return (1,) + (0,) * (precision - 1)
    return int_product(
        _eisenstein_power(k, e - 1, precision), eisenstein_ints(k, precision)
    )


def monomial_span(k, precision):
    """The monomials E_4^a E_6^b with 4a + 6b = k, as integer rows."""
    return [
        int_product(
            _eisenstein_power(4, (k - 6 * b) // 4, precision),
            _eisenstein_power(6, b, precision),
        )
        for b in range(k // 6 + 1)
        if (k - 6 * b) % 4 == 0
    ]


def monomial_miller_basis(k, precision):
    """Miller basis by Fraction row reduction of the monomial span, an
    independent construction to compare qseries.miller_basis against.

    The rank is not checked against dim_mk, so a caller can compare the
    two; empty spaces give a dimension-0 basis.  Integral entries are
    passed as ints; MillerBasis refuses any other.
    """
    rows = rref(monomial_span(k, precision))
    return MillerBasis(k, [
        [x.numerator if x.denominator == 1 else x for x in row] for row in rows
    ])


def jacobi_delta(precision):
    """Integer q-coefficients of Delta = q prod_n (1 - q^n)^24, in plain
    ints, without E_4 or E_6."""
    prod = [1] + [0] * (precision - 1)
    for n in range(1, precision):
        for _ in range(24):  # multiply by (1 - q^n), high degrees first
            for i in range(precision - 1, n - 1, -1):
                prod[i] -= prod[i - n]
    return [0] + prod[: precision - 1]


def delta_e6_coefficients(precision):
    """Integer q-coefficients a(0..precision-1) of Delta*E_6, the normalized
    cusp form spanning S_18.

    Delta comes from the Jacobi product and E_6 from
    1 - 504 sum sigma_5(n) q^n, both in plain ints, so nothing here goes
    through qseries._delta_ints, miller_basis or numtheory.bernoulli.
    """
    return list(
        int_product(jacobi_delta(precision), eisenstein_ints(6, precision))
    )


def weight_18_prime_distance(p, a_p):
    """Closed-form ray distance at weight 18 for a prime p with cusp
    coefficient a(p).

    S_18 is spanned by f_1 = Delta*E_6 and the Miller basis is f_1 with
    f_0 = E_18 - c f_1, c = -36/B_18, so P_p has coordinates
    (c (1 + p^17 - a(p)), a(p)) and the Kahler ray is (-1, 0).  Scaling by
    the larger entry, |c| (1 + p^17 - a(p)), leaves the distance
    |a(p)| / (|c| (1 + p^17 - a(p))).
    """
    return abs(a_p) / (abs(C18) * (1 + p**17 - a_p))


def weight_18_deligne_envelope(p):
    """Rational upper bound for the weight-18 distance at a prime p.

    Deligne's bound |a(p)| <= 2 p^(17/2) < 2 s_p with s_p = isqrt(p^17) + 1
    gives d(p) <= 2 s_p / (|c| (1 + p^17 - 2 s_p)), since
    x / (1 + p^17 - x) increases with x.
    """
    s = math.isqrt(p**17) + 1
    return 2 * s / (abs(C18) * (1 + p**17 - 2 * s))


def mat2_mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0],
         p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0],
         p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def congruent2(t, u):
    """u^t T u for a binary HalfIntegralMatrix T and a 2x2 integer matrix u,
    as two 2x2 products of the doubled entries."""
    ut = ((u[0][0], u[1][0]), (u[0][1], u[1][1]))
    return HalfIntegralMatrix(mat2_mul(mat2_mul(ut, t.doubled), u))


def rand_gl2(rng, steps=6):
    """Random GL_2(Z) element as a word in elementary matrices."""
    pool = (
        ((1, 1), (0, 1)),
        ((1, -1), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, -1)),
    )
    u = ((1, 0), (0, 1))
    for _ in range(steps):
        u = mat2_mul(u, rng.choice(pool))
    return u


def rand_gln(rng, n, steps=12):
    """Random unimodular basis change by row operations on the identity."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            u[i][t] += c * u[j][t]
    return u
