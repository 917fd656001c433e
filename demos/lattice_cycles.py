#!/usr/bin/env python3
"""Lattice-side combinatorics: moment matrices, reduction, and a family of
tuples sharing one orthogonal complement.

The lattice is U + U + E8^j with the two hyperbolic planes first, so
small witness vectors of any norm are easy to write down, primitivity is
a coordinate gcd, and moment matrices of vector tuples are half-integral
with integral diagonal.
"""

from cyclecones import (
    HalfIntegralMatrix,
    build_even_unimodular,
    common_component_family,
    gauss_reduce,
    is_primitive,
    moment_matrix,
    norm_q,
    vector_of_norm,
)
from cyclecones.linalg import det, gram_signature

lat = build_even_unimodular(10)
print(f"lattice U+U+E8: rank {lat.dimension}, det {det(lat.doubled)}, "
      f"signature {gram_signature(lat.doubled)}")
print()

for m in (1, 7):
    lam = vector_of_norm(lat, m)
    print(f"witness of norm {m}: {lam[:4]}...  q = {norm_q(lat, lam)}, "
          f"primitive: {is_primitive(lam)}")
print()

v1 = (1, 1, 0, 0) + (0,) * 8
v2 = (0, 0, 1, 2) + (0,) * 8
t = moment_matrix(lat, [v1, v2])
print(f"moment matrix of an orthogonal pair (doubled): {t.doubled}")
print()

t = HalfIntegralMatrix(((4, 3), (3, 4)))
red, u = gauss_reduce(t)
print(f"Gauss reduction: doubled {t.doubled} -> {red.doubled} via u = {u}")
print(f"  determinant preserved: {t.determinant()} == {red.determinant()}")
print()

print("family (j*lam1, lam2) with one common orthogonal complement, m = 3:")
for e in common_component_family(lat, 3, 5)["entries"]:
    print(f"  j={e['j']}: T_j doubled {e['moment_doubled']}, det {e['det']}, "
          f"diagonal as expected: {e['moment_is_expected_diagonal']}, "
          f"span unchanged: {e['span_matches_base']}")
