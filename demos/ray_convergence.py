#!/usr/bin/env python3
"""Quantitative convergence of primitive Heegner rays toward the Kähler ray.

At weight k = 18 the form space is 2-dimensional, so each class has a ray
in the plane; as the index grows, the Eisenstein-type coordinate swamps
the cusp coordinate and the rays close in on the ray of the Kähler class
(-e_0 in the echelon dual basis).  Distances are exact rationals; floats
below are display only.

The decay is broad but not termwise monotone: cusp coefficients swing
beneath their growth envelope, so a later prime can sit farther out than
an earlier one (see 19 vs 23 below).
"""

from fractions import Fraction

from cyclecones import convergence_scan, miller_basis, omega_ray

k = 18
basis = miller_basis(k, 201)
print(f"weight {k}, omega ray = {tuple(map(str, omega_ray(basis)))}")
print()

scan = dict(convergence_scan(basis, range(1, 201)))
print(" m      exact distance                    float")
for m in (1, 2, 3, 5, 11, 19, 23, 50, 100, 199):
    d = scan[m]
    shown = f"{d.numerator}/{d.denominator}"
    if len(shown) > 32:
        shown = shown[:29] + "..."
    print(f"{m:4d}   {shown:<33} {float(d):.3e}")

print()
fluct = scan[19] < scan[23]
print(f"fluctuation: d(19) < d(23) is {fluct} (exact comparison)")
tail = max(scan[m] for m in range(100, 201))
print(f"max distance on [100, 200]: {float(tail):.3e}  (< 1e-6: {tail < Fraction(1, 10**6)})")

print()
print("weight 6 (one-dimensional space): every ray IS the omega ray")
print("distances:", [str(d) for _, d in convergence_scan(miller_basis(6, 8), range(1, 8))])
