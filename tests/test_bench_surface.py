"""The names the benchmark under ``bench/`` uses from ``stereosr`` all exist.

The benchmark imports the package by name and reads functions off its
modules; a rename in ``src/`` would otherwise surface only when the
benchmark itself runs.  The benchmark's files are parsed, not imported.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py"))


def resolve(dotted: str):
    """The object ``dotted`` names; a submodule is found by importing it,
    since a package need not import its submodules."""
    head, *rest = dotted.split(".")
    obj, path = importlib.import_module(head), head
    for part in rest:
        path = f"{path}.{part}"
        if hasattr(obj, "__path__") and importlib.util.find_spec(path) is not None:
            obj = importlib.import_module(path)
        else:
            obj = getattr(obj, part)
    return obj


def _attribute_chain(node: ast.Attribute) -> tuple[str, list[str]] | None:
    # (root name, attributes) of a.b.c; None unless the root is a plain name
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def stereosr_references(source: str) -> set[str]:
    """Dotted names of everything the source imports from ``stereosr``, of
    every attribute chain read off a name so imported, and of every
    ``("stereosr.<module>", "<name>")`` pair of string literals (the tracer's
    tests name module bindings that way)."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}   # local name -> dotted name
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "stereosr":
                    refs.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "stereosr":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                refs.add(dotted)
                bound[alias.asname or alias.name] = dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _attribute_chain(node)
            if chain is not None and chain[0] in bound:
                refs.add(".".join([bound[chain[0]], *chain[1]]))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            module, name = (e.value for e in node.elts)
            if module.startswith("stereosr."):
                refs.add(f"{module}.{name}")
    return refs


def _traced_functions() -> tuple:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED_FUNCTIONS")


def _unresolved(dotted_names) -> list[str]:
    missing = []
    for dotted in sorted(dotted_names):
        try:
            resolve(dotted)
        except (ImportError, AttributeError) as e:
            missing.append(f"{dotted}: {e}")
    return missing


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: str(p.relative_to(BENCH)))
def test_every_stereosr_name_the_file_uses_resolves(path):
    assert _unresolved(stereosr_references(path.read_text())) == []


def test_every_traced_function_resolves():
    traced = _traced_functions()
    assert traced
    assert _unresolved(f"stereosr.{module}.{fn}" for module, fn in traced) == []


def test_the_benchmark_references_are_found():
    # guards against a parser that finds nothing and so checks nothing
    refs = set().union(*(stereosr_references(p.read_text()) for p in BENCH_FILES))
    assert {"stereosr.cli", "stereosr.cli.main", "stereosr.model.forward",
            "stereosr.model.StereoPair", "stereosr.tensor.GradTape",
            "stereosr.transport.deam_forward", "stereosr.images.decode_png",
            "stereosr.blocks.conv2d"} <= refs


# The attributes the benchmark reads off values the package returns, by the
# values' classes.  The parser above follows only attribute chains rooted at
# an imported name; it cannot tell the class of a call's result, an item of
# a returned tuple or a loop variable, so it misses e.g. workloads.py's
# `result[2].row_sums()` on the plan that deam_forward returns.
RETURNED_ATTRIBUTES = {
    "stereosr.transport.TransportPlan": ("values", "row_sums"),
    "stereosr.transport.CostVolume": ("values",),
    "stereosr.model.StereoPair": ("left", "right"),
    "stereosr.model.ModelConfig": ("n_blocks", "scale", "lska_branches", "sinkhorn_iters",
                                   "share_view_weights", "single_interaction",
                                   "global_residual", "deam_stages"),
    "stereosr.model.WeightStore": ("items", "tensors"),
    "stereosr.blocks.LskaBranch": ("dilation",),
    "stereosr.images.ImageBuffer": ("pixels", "to_tensor"),
    "stereosr.tensor.Tensor": ("data", "item", "shape", "h", "w"),
    "stereosr.tensor.GradTape": ("__enter__", "__exit__", "__len__", "gradients"),
    "stereosr.train.StepLog": ("loss",),
}


@pytest.mark.parametrize("cls", RETURNED_ATTRIBUTES)
def test_every_attribute_read_off_a_returned_value_resolves(cls):
    klass = resolve(cls)
    # a dataclass field without a default is no class attribute
    fields = {f.name for f in dataclasses.fields(klass)} if dataclasses.is_dataclass(klass) else ()
    assert [a for a in RETURNED_ATTRIBUTES[cls] if not hasattr(klass, a) and a not in fields] == []


def test_a_missing_name_is_reported():
    source = ("from stereosr import transport\n"
              "from stereosr.model import NoSuchName\n"
              "transport.NoSuchConfig()\n")
    missing = _unresolved(stereosr_references(source))
    assert [m.split(":")[0] for m in missing] == [
        "stereosr.model.NoSuchName", "stereosr.transport.NoSuchConfig"]
