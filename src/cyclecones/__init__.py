"""Exact arithmetic for special-cycle classes on orthogonal Shimura
varieties: q-expansions and Miller bases, Heegner-class coefficient
functionals and their Eisenstein identities, rational ray/cone geometry
with an exact LP core, and even-unimodular lattice combinatorics."""

from .classes import (
    FunctionalCombo,
    coordinates,
    eisenstein_identity_scan,
    heegner_class,
    omega_class,
    primitive_heegner_class,
    weight_for_signature,
)
from .cones import (
    Cone,
    NotPointedError,
    Ray,
    accumulation_cone_model,
    convergence_scan,
    extremal_generators,
    extremal_rays,
    is_pointed,
    lp_feasible,
    omega_ray,
    pointedness_witness,
    ray_distance,
    span_dimension,
)
from .lattice import (
    EvenLattice,
    HalfIntegralMatrix,
    build_even_unimodular,
    common_component_family,
    gauss_reduce,
    inner,
    is_positive_definite,
    is_primitive,
    moment_matrix,
    norm_q,
    vector_of_norm,
)
from .numtheory import (
    bernoulli,
    factorize,
    zeta_negative,
)
from .qseries import (
    MillerBasis,
    dim_mk,
    dump_miller_basis,
    eisenstein,
    load_miller_basis,
    miller_basis,
)

__version__ = "0.1.0"
