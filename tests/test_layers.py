"""The package layers of ``repro`` form a DAG, and each layer loads alone.

The paper's stack is strictly layered: RDMA writes land in SST rows,
one predicate thread polls them, and the multicast is a set of
predicates on top. These tests hold the code to that order:

* the package import graph, built from the AST of ``src/repro`` with
  module-level, function-level and ``TYPE_CHECKING`` imports all
  counted, has no cycle, and DESIGN.md §6 lists the packages in an
  order every import respects;
* every module imports as the first import of a fresh interpreter;
* ``import repro.sim`` and ``import repro.workloads`` load only what
  they need;
* every dotted ``repro.…`` path in README.md, DESIGN.md and docs/*.md
  resolves.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _modules():
    """Dotted module name -> (path, is_package) for every file of repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        found[".".join(parts)] = (path, is_package)
    return found


MODULES = _modules()


def _package(module):
    """The layer a module belongs to: ``repro.core.group`` -> ``core``;
    the top-level ``repro`` and ``repro.cli`` are layers of their own."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _targets(module, is_package, node):
    """The repro modules one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        base = node.module
    else:
        parts = module.split(".")
        if not is_package:
            parts.pop()
        parts = parts[:len(parts) - node.level + 1]
        base = ".".join(parts + ([node.module] if node.module else []))
    return [f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES
            else base for alias in node.names]


def import_graph():
    """(importer layer, imported layer) -> ["path:line", ...]."""
    edges = {}
    for module, (path, is_package) in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _targets(module, is_package, node):
                if target != "repro" and not target.startswith("repro."):
                    continue
                src, dst = _package(module), _package(target)
                if src != dst:
                    site = f"{path.relative_to(SRC)}:{node.lineno}"
                    edges.setdefault((src, dst), []).append(site)
    return edges


def cyclic_components(edges):
    """Strongly connected components with more than one layer."""
    layers = sorted({layer for edge in edges for layer in edge})
    reach = {}
    for layer in layers:
        seen, todo = set(), [layer]
        while todo:
            here = todo.pop()
            for (src, dst) in edges:
                if src == here and dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        reach[layer] = seen
    components = []
    for layer in layers:
        component = sorted({layer} | {other for other in reach[layer]
                                      if layer in reach[other]})
        if len(component) > 1 and component not in components:
            components.append(component)
    return components


def test_package_graph_is_acyclic():
    edges = import_graph()
    components = cyclic_components(edges)
    pairs = sum(len(c) * (len(c) - 1) // 2 for c in components)
    report = []
    for component in components:
        report.append("cycle through " + ", ".join(component) + ":")
        for (src, dst), sites in sorted(edges.items()):
            if src in component and dst in component:
                sites = ", ".join(dict.fromkeys(sites))
                report.append(f"  {src} -> {dst}: {sites}")
    assert pairs == 0, f"{pairs} cyclic package pair(s)\n" + "\n".join(report)


def _design_layer_order():
    """The layer names DESIGN.md §6 lists under ``src/repro/``."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 6.", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^      (\w+)[/.]", section, re.MULTILINE)


def test_design_lists_layers_lowest_first():
    order = _design_layer_order()
    layers = {_package(module) for module in MODULES} - {"repro"}
    assert sorted(order) == sorted(layers)
    edges = import_graph()
    for index, layer in enumerate(order):
        above = {dst for (src, dst) in edges if src == layer} - {"repro"}
        listed_later = above - set(order[:index])
        assert not listed_later, (
            f"DESIGN.md §6 lists {layer} below {sorted(listed_later)}, "
            f"which it imports: "
            + "; ".join(f"{dst}: {edges[(layer, dst)]}"
                        for dst in sorted(listed_later)))


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


FIRST_IMPORT = """
import importlib, json, sys
failures = []
for name in NAMES:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
print(json.dumps(failures))
"""


def test_every_module_imports_first():
    failures = _run(f"NAMES = {json.dumps(sorted(MODULES))}\n" + FIRST_IMPORT)
    assert failures == []


def _loaded_by(statement):
    return _run(f"""
import json, sys
{statement}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
""")


def test_sim_loads_alone():
    loaded = _loaded_by("import repro.sim")
    assert [m for m in loaded if m not in ("repro", "repro.sim")
            and not m.startswith("repro.sim.")] == []


def test_workloads_leave_optional_planes_unloaded():
    # Every benchmark worker imports repro.workloads; these modules
    # would add to its peak RSS without being used by its run.
    loaded = set(_loaded_by("import repro.workloads"))
    assert loaded & {
        "repro.ordering.paxos",
        "repro.recovery.coordinator",
        "repro.recovery.verify",
        "repro.recovery.powerloss",
        "repro.faults",
        "repro.workloads.scenarios",
    } == set()


DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _resolves(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        if ".".join(parts[:split]) in MODULES:
            break
    obj = importlib.import_module(".".join(parts[:split]))
    for attribute in parts[split:]:
        if not hasattr(obj, attribute):
            return False
        obj = getattr(obj, attribute)
    return True


def test_doc_paths_resolve():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    broken, checked = [], 0
    for doc in docs:
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            for match in DOTTED.finditer(line):
                checked += 1
                if not _resolves(match.group(0)):
                    broken.append(f"{doc.relative_to(ROOT)}:{number}: "
                                  f"{match.group(0)}")
    assert checked > 0
    assert broken == []
