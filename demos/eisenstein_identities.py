#!/usr/bin/env python3
"""Walk through the two exact Eisenstein identities for Heegner classes.

For signature (n, 2) and weight k = 1 + n/2, the coefficient functional
c_m applied to the normalized Eisenstein series E_k has the closed form
2 sigma_{n/2}(m) / zeta(-n/2), and the primitive Heegner class (the
Moebius-inverted combination over square divisors) evaluates to

    (2 m^{n/2} / zeta(-n/2)) * prod_{p | m} (1 + p^{-n/2}),

which is never zero.  Everything below is exact rational arithmetic.  In
the coefficient identity the q-expansion side comes from the divisor-sum
sieve and the closed form from the multiplicative formula, two independent
routes.  The scale is not: F = -2k/B_k of E_k is 2/zeta(-n/2) of the
closed forms (n/2 = k - 1), so the scan writes both sides on the one
scale F from bernoulli(k) and compares their integers.  A wrong B_k would
pass here and is caught by the tests that check Bernoulli numbers on
their own.
"""

from fractions import Fraction

from cyclecones import (
    eisenstein,
    eisenstein_identity_scan,
    primitive_heegner_class,
    weight_for_signature,
    zeta_negative,
)

n = 10
k = weight_for_signature(n)
print(f"signature ({n}, 2)  ->  weight k = {k},  zeta(-{n//2}) = {zeta_negative(n//2)}")
print()

print(f"E_{k} = 1 " + " ".join(
    f"{'+' if c > 0 else '-'} {abs(c)} q^{i}"
    for i, c in enumerate(eisenstein(k, 4)) if i
) + " + ...")
print()

# rows (check, m, lhs, rhs, equal), both sides written p/q in lowest terms
rows = {
    (check, m): (Fraction(lhs), Fraction(rhs), equal)
    for check, m, lhs, rhs, equal in eisenstein_identity_scan(n, 100)
}

print("coefficient identity, q-expansion vs closed form:")
for m in (1, 2, 6, 12):
    lhs, rhs, equal = rows["coefficient", m]
    print(f"  m={m:3d}:  c_m(E) = {lhs}  closed form = {rhs}  equal: {equal}")
print()

print("primitive classes as Moebius combinations:")
for m in (4, 36):
    terms = " ".join(
        f"{'+' if a > 0 else '-'} c_{i}" for i, a in primitive_heegner_class(m)
    )
    print(f"  P_{m} = {terms}")
print()

print("primitive evaluation vs Euler product (both exact):")
for m in (1, 2, 4, 36, 100):
    lhs, rhs, equal = rows["primitive", m]
    print(f"  m={m:3d}:  lhs = {lhs}  rhs = {rhs}  equal: {equal}")

print()
print("scan m <= 200 on three signatures:")
for n in (10, 18, 26):
    ok = all(row[4] for row in eisenstein_identity_scan(n, 200))
    print(f"  n={n}: all 400 comparisons exactly equal: {ok}")
