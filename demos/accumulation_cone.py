#!/usr/bin/env python3
"""Truncated accumulation-cone models: span, pointedness, extremal rays.

The cone is generated by the Kähler class together with the primitive
Heegner classes up to a truncation bound, in coordinates dual to the
echelon basis.  Exact LP decides pointedness and extremality; the span
always fills the whole dual space once the truncation passes its
dimension, and the extremal ray set stops moving early, the finite
shadow of polyhedrality.
"""

from cyclecones import (
    accumulation_cone_model,
    cone_report,
    miller_basis,
    pointedness_witness,
    weight_for_signature,
)

for n in (10, 34, 66):
    k = weight_for_signature(n)
    report = cone_report(miller_basis(k, 201), 200)
    rays = report["extremal_rays"]
    print(f"signature ({n}, 2), weight {k}: dim M_k = {report['expected_dim']}")
    print(f"  generators: {report['generator_count']} (omega + P_1..P_200)")
    print(f"  span dimension: {report['dim']}")
    print(f"  pointed: {report['pointed']}")
    print(f"  extremal rays: {len(rays)}, stable from M=100: {report['extremal_stable']}")
    for ray in rays:
        shown = ", ".join(str(c) if len(str(c)) < 14 else f"{float(c):.4g}"
                          for c in ray)
        print(f"    ({shown})")
    print()

# tiny cone with an exact separating functional
k = 18
cone = accumulation_cone_model(miller_basis(k, 32), 30)
y = pointedness_witness(cone)
print(f"weight {k}, M=30: separating functional y = {tuple(map(str, y))}")
print("  <y, g> >= 1 on every generator:",
      all(sum(a * b for a, b in zip(y, g)) >= 1 for g in cone.generators))
