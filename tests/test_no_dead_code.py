"""Every definition in ``src/hgmts`` has a caller outside the tests.

A top-level function or class, or a non-dunder method, counts as used when
something else references it: another part of ``src/hgmts``, ``hgmts.__all__``,
the ``[project.scripts]`` entry point, or a target of the benchmark's tracer
(``perfbench/measure.py``, only read).  Top-level names resolve per module
(``ad.exp`` is ``autodiff.exp``, ``np.exp`` is not); methods match by attribute
name.  A reference from inside the definition itself does not count.
"""

import ast
import tomllib
from pathlib import Path
from types import SimpleNamespace

import hgmts

ROOT = Path(__file__).resolve().parents[1]

# (module, qualified name) -> why it stays without a caller in src/
KEPT = {
    ("autodiff", "tanh"): "tape primitive of the gradient tests (criterion 1)",
    ("autodiff", "sum"): "tape primitive that reduces the gradient tests' losses",
    ("metrics", "persistence_forecast"): "baseline of criterion 7 and of the benchmark's quality check",
    ("model", "Model.graph_builds_per_window"): "the benchmark's graph-budget check calls it",
}


def scan(module, tree):
    """(definitions, top-level references as (module, name), method references
    as attribute names) of one module."""
    modules, names = {}, {}  # local alias -> package module / (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[(module, node.name)] = node
        if isinstance(node, ast.ClassDef):
            defs.update({(module, f"{node.name}.{item.name}"): item for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not (item.name.startswith("__") and item.name.endswith("__"))})
    inside = {}  # id(node) -> names of the definitions that enclose it
    for (_, qual), node in defs.items():
        for inner in ast.walk(node):
            inside.setdefault(id(inner), set()).add(qual.rsplit(".", 1)[-1])
    top, attrs = set(), set()
    for node in ast.walk(tree):
        own = inside.get(id(node), set())
        if isinstance(node, ast.Name) and node.id not in own:
            top.add(names.get(node.id, (module, node.id)))
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                top.add((modules[node.value.id], node.attr))
    return defs, top, attrs


def test_every_definition_has_a_caller(monkeypatch):
    defs, top, attrs = {}, set(), set()
    for path in sorted((ROOT / "src" / "hgmts").glob("*.py")):
        d, t, a = scan(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        defs.update(d)
        top |= t
        attrs |= a
    top |= {(getattr(getattr(hgmts, name), "__module__", "").rsplit(".", 1)[-1], name)
            for name in hgmts.__all__}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    top |= {(mod.rsplit(".", 1)[-1], func) for mod, func in
            (target.split(":") for target in scripts.values())}
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import measure

    stub = SimpleNamespace(on_step=None, on_tape=None, on_forward=None, on_graphs=None)
    traced = {(getattr(owner, attr).__module__.rsplit(".", 1)[-1],
               getattr(owner, attr).__qualname__)
              for owner, attr, _, _ in measure.step_targets(stub, "train") + measure.SETUP_TARGETS}

    unused = [f"{module}.{qual}" for module, qual in sorted(defs)
              if (module, qual) not in KEPT and (module, qual) not in traced
              and not (qual.rsplit(".", 1)[1] in attrs if "." in qual else (module, qual) in top)]
    assert not unused, f"defined in src/hgmts but referenced nowhere: {unused}"
    stale = [key for key in KEPT if key not in defs]
    assert not stale, f"KEPT lists definitions that no longer exist: {stale}"
