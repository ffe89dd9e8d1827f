"""The benchmark in perfbench/ reaches into the package by name; keep those names.

Its tracer wraps functions and classes looked up by module and name, and
its workloads import and call package functions; a rename would otherwise
surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = load_spans()
    for targets in spans.FUNCTIONS.values():
        for module, name in targets:
            assert callable(getattr(importlib.import_module(module), name)), (module, name)
    for module, name in spans.CLASSES.values():
        assert isinstance(getattr(importlib.import_module(module), name), type), (module, name)
    # the tracer wraps homology once in simplicial and relies on tower
    # binding the same function
    tower = importlib.import_module("towertop.tower")
    simplicial = importlib.import_module("towertop.simplicial")
    assert tower.homology is simplicial.homology


def test_every_name_the_workloads_import_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {}
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("towertop"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                checked += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("towertop"):
                    aliases[alias.asname or alias.name] = importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module is not None:
                assert hasattr(module, node.attr), (module.__name__, node.attr)
                checked += 1
    assert checked > 0


def test_every_gallery_tower_the_workloads_build_is_accepted():
    from towertop.compactohedral import build_gallery

    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    jobs = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "gallery_jobs"
    )
    towers = [
        ast.literal_eval(node)
        for node in ast.walk(jobs)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[1], ast.Dict)
    ]
    assert {family for family, _ in towers} == {"comb", "fence", "solenoid", "warsaw"}
    for family, params in towers:
        tower = build_gallery(family, **params)
        assert len(tower.levels) == params["depth"] + 1, (family, params)
