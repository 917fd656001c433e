import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cyclecones

MODULES = [
    "numtheory", "qseries", "linalg", "classes", "cones", "lattice", "cli"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_names(name):
    mod = importlib.import_module(f"cyclecones.{name}")
    for attr in mod.__all__:
        obj = getattr(mod, attr)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, attr
    if name == "cli":
        assert mod.__all__ == ["main"]
        return
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    }
    assert defined <= set(mod.__all__)


# the names the package re-exports, each loaded on first use
REEXPORTED = {
    "coordinates", "eisenstein_identity_scan",
    "heegner_class", "omega_class", "primitive_heegner_class",
    "weight_for_signature",
    "Cone", "NotPointedError", "accumulation_cone_model",
    "cone_report", "convergence_scan", "extremal_generators",
    "lp_feasible", "omega_ray", "pointedness_witness", "ray_distance",
    "span_dimension",
    "HalfIntegralMatrix", "build_even_unimodular",
    "common_component_family", "gauss_reduce", "inner",
    "is_positive_definite", "is_primitive", "moment_matrix", "norm_q",
    "vector_of_norm",
    "bernoulli", "factorize", "zeta_negative",
    "MillerBasis", "dim_mk", "dump_miller_basis", "eisenstein",
    "load_miller_basis", "miller_basis",
}


def test_package_reexports_only_listed_names(run_python):
    assert len(cyclecones.__all__) == len(REEXPORTED)
    assert set(cyclecones.__all__) == REEXPORTED
    assert REEXPORTED <= set(dir(cyclecones))
    for attr in cyclecones.__all__:
        obj = getattr(cyclecones, attr)
        mod = importlib.import_module(obj.__module__)
        assert attr in mod.__all__, (attr, mod.__name__)
        assert getattr(mod, attr) is obj, attr
    # once every name is loaded, the namespace holds no other public name
    loaded = {
        attr for attr, obj in vars(cyclecones).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert loaded == REEXPORTED
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclecones.no_such_name
    proc = run_python(
        "-S", "-c",
        "before = set(globals())\n"
        "from cyclecones import *\n"
        "print(*sorted(set(globals()) - before - {'before'}))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(REEXPORTED)


def test_cli_binds_only_public_names():
    # the CLI answers through the library's public API, not its helpers
    path = Path(cyclecones.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    private = [
        (module, name) for module, name in imported
        if name not in importlib.import_module(f"cyclecones.{module}").__all__
    ]
    assert private == []


def _package_imports(name, top_level_only=False) -> set[str]:
    """The package modules that module name imports from, by relative or
    absolute import, anywhere in it or only at its top level."""
    path = Path(cyclecones.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    nodes = tree.body if top_level_only else ast.walk(tree)
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("cyclecones."):
                found.add(node.module.removeprefix("cyclecones."))
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("cyclecones.")
                         for alias in node.names
                         if alias.name.startswith("cyclecones."))
    return found


def test_cli_imports_the_library_only_inside_its_commands():
    # a command imports the modules it runs when it runs, so that no
    # command compiles the modules of another
    assert _package_imports("cli", top_level_only=True) == set()
    assert _package_imports("cli") == {"classes", "cones", "lattice", "qseries"}


def test_cones_imports_linalg_only_where_a_cone_report_needs_it():
    # span_dimension, which only cone reports call, imports linalg when
    # it runs, so that a converge command does not compile it
    assert "linalg" not in _package_imports("cones", top_level_only=True)
    assert "linalg" in _package_imports("cones")


@pytest.mark.parametrize("name, kept_out", [
    ("classes", {"qseries", "cones", "lattice", "linalg"}),
    ("lattice", {"classes", "qseries", "cones"}),
])
def test_module_layering(name, kept_out):
    # an identities command loads classes and numtheory alone, and a
    # lattice command lattice, linalg and numtheory
    imported = _package_imports(name)
    assert imported and not imported & kept_out, imported


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish there; every check in the package raises instead
    root = Path(cyclecones.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_package_modules_import_no_unused_name():
    # without bytecode every import is compiled and run on each command,
    # so a name a module imports and never reads is pure start-up cost;
    # __init__ imports the public names to re-export them
    root = Path(cyclecones.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused = [
            (node.lineno, bound)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := alias.asname or alias.name.split(".")[0]) not in read
        ]
        assert not unused, (path.name, unused)


def _names_read_outside_the_tests() -> set[str]:
    """Every name read, attribute read or name imported in the package's
    modules (except __init__, which re-exports) and in the demos."""
    root = Path(cyclecones.__file__).parent
    demos = Path(__file__).resolve().parents[1] / "demos"
    paths = [p for p in sorted(root.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(demos.glob("*.py"))
    assert len(paths) > len(MODULES)
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_read_outside_the_tests(name):
    # a public name that only tests read is API kept up for the tests
    # alone; a test that needs such a helper keeps it in tests/oracles.py
    mod = importlib.import_module(f"cyclecones.{name}")
    read = _names_read_outside_the_tests()
    assert [attr for attr in mod.__all__ if attr not in read] == []
