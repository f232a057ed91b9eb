"""The public surface of ``import cndkit`` and what each entry point loads.

The package exports its names lazily, and the CLI imports each command's
modules inside the command. The child-process tests list the ``cndkit.*``
modules (and ``json`` and ``decimal``) a fresh interpreter has loaded, so a
top-level import added later that loads a module a command does not use
fails here.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cndkit
from cndkit.serialize import save_model

SRC = str(Path(cndkit.__file__).resolve().parent.parent)
FIXTURE = str(Path(cndkit.__file__).resolve().parent / "fixtures" / "caltech101.csv")
PUBLIC = [name for name in cndkit.__all__ if name != "__version__"]

# Appended to a child's code: print the loaded ``cndkit`` modules, ``json``
# and ``decimal`` last.
LIST_LOADED = ('\nimport sys; print(" ".join(m for m in sys.modules '
               'if m.startswith("cndkit") or m in ("json", "decimal")))')
# Run the CLI as ``python -m cndkit.cli`` would.
CLI_CHILD = """
import runpy, sys
sys.argv = ["cndkit", *sys.argv[1:]]
try:
    runpy.run_module("cndkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code""" + LIST_LOADED


def child(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(code: str, *args: str) -> set[str]:
    return set(child(code, *args).splitlines()[-1].split())


class TestPublicSurface:
    def test_all_is_the_published_list(self):
        assert cndkit.__all__ == [
            "Activation", "Add", "BatchNorm", "Conv2D", "Dense", "GlobalAvgPool", "Input",
            "LayerKind", "LayerNode", "MaxPool", "ModelGraph", "SeparableConv2D", "TensorShape",
            "infer_shapes", "topo_sort",
            "validate", "serialize", "deserialize", "save_model", "load_model",
            "FireModuleSpec", "OptimizedConfig", "DEFAULT_OPTIMIZED_CONFIG",
            "build_xception", "build_optimized_xception", "build_mobilenet_v2", "make_fire_module",
            "LayerParams", "LayerRow", "ParamReport", "MemoryEstimate", "analyze", "count_params",
            "count_params_layer", "flops_estimate", "activation_sizes", "memory_estimate",
            "round_params_millions",
            "PassReport", "DownsampleAudit", "strategy1_replace_kernels", "strategy2_insert_fire",
            "strategy3_audit", "diff", "structurally_equal",
            "ModelMeasurement", "Quadrant", "QuadrantConfig", "load_measurements", "load_fixture",
            "memory_frontier", "classify_quadrant", "pareto_front", "export_plot_data",
            "__version__",
        ]

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_resolves_to_its_home_module_attribute(self, name):
        home = importlib.import_module(f"cndkit.{cndkit._HOME[name]}")
        expected = getattr(home, name)
        assert getattr(cndkit, name) is expected
        assert cndkit.__getattr__(name) is expected
        defined_in = getattr(expected, "__module__", None)
        if defined_in and defined_in.startswith("cndkit."):
            assert defined_in == home.__name__

    def test_layer_params_lives_in_graph_and_resolves_from_analyzer(self):
        import cndkit.analyzer
        import cndkit.graph

        assert cndkit.LayerParams is cndkit.graph.LayerParams is cndkit.analyzer.LayerParams

    def test_every_public_function_has_a_caller_in_the_package(self):
        # Every public function is called inside the package, but for the
        # four that wait to be wired to the CLI or deleted (ROADMAP item 15).
        exempt = {"strategy3_audit", "structurally_equal", "export_plot_data", "load_fixture"}
        called = set()
        for path in Path(cndkit.__file__).parent.glob("*.py"):
            if path.name != "__init__.py":
                for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(call, ast.Call):
                        called.add(getattr(call.func, "id", getattr(call.func, "attr", None)))
        functions = {name for name in PUBLIC if inspect.isfunction(getattr(cndkit, name))}
        assert sorted(functions - called) == sorted(exempt)

    def test_every_private_module_name_is_read_in_the_package(self):
        # A module-level private function, class or constant that no code
        # in the package reads is dead. Dunders are read by the interpreter.
        trees = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in Path(cndkit.__file__).parent.glob("*.py")]
        defined = set()
        for tree in trees:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        read = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        private = {n for n in defined
                   if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}
        assert private, "no private module-level names found"
        assert sorted(private - read) == []

    def test_dir_covers_all(self):
        assert set(cndkit.__all__) <= set(dir(cndkit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cndkit.no_such_name  # noqa: B018
        assert not hasattr(cndkit, "no_such_name")
        with pytest.raises(ImportError):
            from cndkit import no_such_name  # noqa: F401

    def test_serialize_stays_the_function_after_submodule_import(self):
        out = child("import cndkit.serialize; import cndkit, sys; "
                    "print(cndkit.serialize is sys.modules['cndkit.serialize'].serialize)")
        assert out.strip() == "True"

    @pytest.mark.parametrize("code", [
        "import cndkit; serialize = cndkit.serialize; import cndkit.serialize",
        "from cndkit import serialize",
        "import cndkit.serialize; from cndkit import serialize",
        "from cndkit.serialize import save_model; import cndkit; serialize = cndkit.serialize",
        "from cndkit import *",
    ], ids=["before-submodule", "from-import", "from-import-after-submodule",
            "after-from-submodule-import", "star-import"])
    def test_serialize_is_the_function_in_every_access_order(self, code):
        out = child(code + "; import sys, cndkit; "
                    "print(serialize is cndkit.serialize is sys.modules['cndkit.serialize'].serialize)")
        assert out.strip() == "True"

    def test_star_import_binds_every_public_name(self):
        out = child("from cndkit import *; print(sorted(n for n in __import__('cndkit').__all__ "
                    "if n not in globals()))")
        assert out.strip() == "[]"


class TestLaziness:
    def test_import_cndkit_loads_only_the_serialize_chain(self):
        assert loaded_by("import cndkit" + LIST_LOADED) == {"cndkit"}

    def test_public_name_loads_its_home_module_on_first_access(self):
        loaded = loaded_by("import cndkit; cndkit.QuadrantConfig" + LIST_LOADED)
        assert "cndkit.pareto" in loaded
        assert not loaded & {"cndkit.analyzer", "cndkit.transforms", "cndkit.zoo"}

    def test_import_cli_loads_no_command_module(self):
        loaded = loaded_by("import cndkit.cli" + LIST_LOADED)
        assert "cndkit.cli" in loaded
        assert not loaded & {"cndkit.analyzer", "cndkit.pareto", "cndkit.transforms", "cndkit.zoo"}

    def test_import_cli_loads_only_the_stdlib_and_cndkit(self):
        # What the child had loaded before the import is left out: ``site``
        # may run a ``.pth`` file that imports a third-party module.
        added = set(child("import sys; before = set(sys.modules); import cndkit.cli; print(*{"
                          "m.partition('.')[0] for m in set(sys.modules) - before})").split())
        assert "cndkit" in added
        assert added - {"cndkit"} <= set(sys.stdlib_module_names), added

    def test_pareto_command_loads_only_pareto(self):
        loaded = loaded_by(CLI_CHILD, "pareto", "--csv", FIXTURE)
        assert "cndkit.pareto" in loaded
        assert not loaded & {"cndkit.analyzer", "cndkit.transforms", "cndkit.zoo", "cndkit.graph",
                             "cndkit.serialize", "json"}

    def test_analyze_command_loads_only_analyzer(self, tmp_path, mobilenet):
        path = tmp_path / "m.json"
        save_model(mobilenet, path)
        loaded = loaded_by(CLI_CHILD, "analyze", "--in", str(path))
        assert "cndkit.analyzer" in loaded
        assert not loaded & {"cndkit.pareto", "cndkit.transforms", "cndkit.zoo"}

    @pytest.mark.parametrize("command", ["build", "analyze", "transform", "diff", "pareto"])
    def test_no_command_loads_decimal(self, command, tmp_path, mobilenet):
        model = str(tmp_path / "m.json")
        save_model(mobilenet, model)
        args = {
            "build": ["build", "mobilenetv2", "--out", str(tmp_path / "b.json")],
            "analyze": ["analyze", "--in", model, "--format", "json"],
            "transform": ["transform", "--in", model, "--out", str(tmp_path / "t.json"),
                          "--report", str(tmp_path / "r.json")],
            "diff": ["diff", "--a", model, "--b", model],
            "pareto": ["pareto", "--csv", FIXTURE, "--out", str(tmp_path / "p.csv")],
        }[command]
        # the child asserts that the command succeeded
        assert "decimal" not in loaded_by(CLI_CHILD, *args)


def _imports_and_uses(tree: ast.Module) -> tuple[dict[str, bool], set[str], set[str]]:
    """Each name the module binds by import (True when the import sits under
    ``if TYPE_CHECKING:``), the names it reads anywhere, and those it reads
    in annotations."""
    imported: dict[str, bool] = {}

    def collect(body, typing_only):
        for stmt in body:
            if isinstance(stmt, ast.If) and getattr(stmt.test, "id", None) == "TYPE_CHECKING":
                collect(stmt.body, True)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = typing_only
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = typing_only

    collect(tree.body, False)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_annotations = {n.id for a in annotations if a is not None for n in ast.walk(a)
                      if isinstance(n, ast.Name)}
    return imported, used, in_annotations


@pytest.mark.parametrize("path", sorted(Path(cndkit.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    imported, used, in_annotations = _imports_and_uses(ast.parse(path.read_text()))
    unused = [name for name, typing_only in imported.items()
              if name not in (in_annotations if typing_only else used)]
    assert not unused, f"{path.name} imports {unused} and never uses them"
