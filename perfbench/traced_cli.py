"""Run one cyclecones CLI command with a span around every call that
crosses a module boundary, and write the per-layer totals as JSON.

usage: python traced_cli.py TRACE_OUT CLI_ARG...

Before calling ``cyclecones.cli.main(argv)`` it replaces, in each package
module's namespace, every function that module imported from another
package module (``cli.miller_basis``, ``cones.coordinates``, ...), and
also ``cones.lp_feasible``, which cones calls by its global name.  No
source file is edited, so stdout is the plain CLI's, byte for byte.

Spans are kept in memory with their parent and reduced at exit: a span's
self time is its duration minus its direct children's, and belongs to the
layer (module) that defines the called function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "numtheory", "qseries", "linalg", "classes", "cones", "lattice")

# The bindings found when the benchmark was defined.  One that is gone
# (a refactor deleted or moved it) is listed under "missing" in the trace
# and the command still runs; new bindings are wrapped as they appear.
EXPECTED = (
    "cli.accumulation_cone_model", "cli.build_even_unimodular",
    "cli.canonicalize", "cli.common_component_family",
    "cli.convergence_scan", "cli.dim_mk", "cli.dump_miller_basis",
    "cli.eisenstein", "cli.eisenstein_coefficient_identity",
    "cli.extremal_generators", "cli.gauss_reduce", "cli.gram_to_json",
    "cli.is_pointed", "cli.is_positive_definite", "cli.load_miller_basis",
    "cli.miller_basis", "cli.moment_matrix", "cli.norm_q",
    "cli.primitive_eisenstein_identity", "cli.span_dimension",
    "cli.weight_for_signature",
    "classes.eisenstein", "classes.factorize", "classes.moebius",
    "classes.sigma", "classes.square_divisors", "classes.zeta_negative",
    "cones.coordinates", "cones.dim_mk", "cones.heegner_class",
    "cones.lp_feasible", "cones.matrix_rank", "cones.miller_basis",
    "cones.omega_class", "cones.primitive_heegner_class",
    "lattice.det", "lattice.gram_signature", "lattice.rref",
    "qseries.bernoulli", "qseries.rank", "qseries.rref", "qseries.sigma",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, parent index or -1, start, end]
        self.stack = []
        self.lp_calls = 0
        self.lp_columns = 0

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def count_lp(self, fn):
        @functools.wraps(fn)
        def counted(n_vars, *args, **kwargs):
            self.lp_calls += 1
            self.lp_columns += n_vars
            return fn(n_vars, *args, **kwargs)

        return counted

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict = {}
        edges: dict = {}
        for (name, layer, parent, start, end), inner in zip(self.spans, child):
            own = end - start - inner
            entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            caller = self.spans[parent][0] if parent >= 0 else ""
            edge = edges.setdefault(f"{caller} > {name}",
                                    {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            edge["calls"] += 1
            edge["self_s"] += own
            edge["total_s"] += end - start
        return {"layers": layers, "edges": edges,
                "lp_calls": self.lp_calls, "lp_columns": self.lp_columns}


def install(tracer: Tracer):
    """Wrap the cross-module bindings; return (cli module, wrapped, missing)."""
    modules, missing = {}, []
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"cyclecones.{layer}")
        except ModuleNotFoundError:
            missing.append(f"cyclecones.{layer}")
    wrapped = []
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ != mod.__name__
                and obj.__module__.startswith("cyclecones.")
            ):
                callee = obj.__module__.rsplit(".", 1)[1]
                name = f"{layer}.{attr}"
                setattr(mod, attr, tracer.wrap(obj, name, callee))
                wrapped.append(name)
    cones = modules.get("cones")
    lp = getattr(cones, "lp_feasible", None)
    if isinstance(lp, types.FunctionType):
        cones.lp_feasible = tracer.count_lp(
            tracer.wrap(lp, "cones.lp_feasible", "cones")
        )
        wrapped.append("cones.lp_feasible")
    missing += sorted(set(EXPECTED) - set(wrapped))
    return modules["cli"], sorted(wrapped), missing


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli, wrapped, missing = install(tracer)
    run = tracer.wrap(cli.main, "cli.main", "cli")
    code = 1
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        main_span = tracer.spans[0]
        doc = tracer.summary()
        doc.update(main_s=main_span[4] - main_span[3], wrapped=wrapped,
                   missing=missing)
        doc["post_s"] = time.perf_counter() - main_span[4]
        with open(out_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
