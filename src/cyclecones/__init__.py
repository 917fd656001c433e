"""Exact arithmetic for special-cycle classes on orthogonal Shimura
varieties: q-expansions and Miller bases, Heegner-class coefficient
functionals and their Eisenstein identities, rational ray/cone geometry
with an exact LP core, and even-unimodular lattice combinatorics.

The public names below are loaded on first use (PEP 562), so importing
the package, or one command of its CLI, compiles only the modules that
are used.
"""

# each re-exported name, by the module that defines it
_EXPORTS = {
    "classes": (
        "coordinates",
        "eisenstein_identity_scan",
        "heegner_class",
        "omega_class",
        "primitive_heegner_class",
        "weight_for_signature",
    ),
    "cones": (
        "Cone",
        "NotPointedError",
        "accumulation_cone_model",
        "cone_report",
        "convergence_scan",
        "extremal_generators",
        "lp_feasible",
        "omega_ray",
        "pointedness_witness",
        "ray_distance",
        "span_dimension",
    ),
    "lattice": (
        "HalfIntegralMatrix",
        "build_even_unimodular",
        "common_component_family",
        "gauss_reduce",
        "inner",
        "is_positive_definite",
        "is_primitive",
        "moment_matrix",
        "norm_q",
        "vector_of_norm",
    ),
    "numtheory": (
        "bernoulli",
        "factorize",
        "zeta_negative",
    ),
    "qseries": (
        "MillerBasis",
        "dim_mk",
        "dump_miller_basis",
        "eisenstein",
        "load_miller_basis",
        "miller_basis",
    ),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that defines the public name, and keep the name
    in the package's namespace so that the next lookup finds it there."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
