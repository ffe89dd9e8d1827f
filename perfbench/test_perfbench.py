"""The benchmark's own tests, at reduced sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload untraced and traced on the smoke inputs, checks the
reported metric names against BENCHMARK.json, checks that the
machine-independent counters repeat exactly between two traced runs of
one seed, and that the benchmark refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTER_SUFFIXES = (".calls", ".distinct", ".cells", ".max_cells", ".max_bits", ".nonzeros", ".simplexes", ".smith_calls")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result(bench(workload, 3, 0))
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = result(bench(workload, 4, 1))
    second = result(bench(workload, 4, 1))
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == expected
    counters = [name for name in first if name.endswith(COUNTER_SUFFIXES)]
    assert counters
    assert {n: first[n]["value"] for n in counters} == {n: second[n]["value"] for n in counters}


def test_traced_run_sees_the_layers_it_exercises():
    metrics = result(bench("large-complexes", 5, 1))
    for name in ("abelian.smith.calls", "simplicial.homology.calls", "nerve.nerve.simplexes"):
        assert metrics[name]["value"] > 0, name
    # every call into towertop lands in a wrapped layer
    assert metrics["unattributed_s"]["value"] < 0.1 * metrics["abelian.smith.self_s"]["value"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("group-towers", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracle_lattice_arithmetic():
    assert oracle.group_invariants(3, [[2, 4, 0], [0, 6, 0]]) == (1, 12)
    assert oracle.lattice_key([[2, 0], [0, 2], [2, 2]], 2) == oracle.lattice_key([[2, 0], [0, 2]], 2)
    assert oracle.lattice_key([[2, 0], [0, 2]], 2) != oracle.lattice_key([[1, 1], [0, 2]], 2)
    assert oracle.quotient_invariants([[1, 0], [0, 1]], [[2, 0], [0, 4]], 2) == (0, 8)
    assert oracle.quotient_invariants([[1, 0], [0, 2]], [[2, 0]], 2) == (1, 2)


def test_wrappers_rebind_every_module_binding():
    import towertop.abelian as abelian
    import towertop.cli  # noqa: F401  (loads every module)
    import towertop.simplicial as simplicial
    import towertop.tower as tower

    original = abelian.smith_normal_form
    tracer = spans.Tracer()
    with tracer.installed():
        assert abelian.smith_normal_form is not original
        assert simplicial.smith_normal_form is abelian.smith_normal_form
        assert tower.homology is simplicial.homology
        circle = simplicial.SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
        with tracer.job(0):
            simplicial.homology(circle, 1)
    assert abelian.smith_normal_form is original and simplicial.smith_normal_form is original
    assert tracer.counters()["abelian.smith.calls"] > 0
    self_s, unattributed = tracer.layer_times()
    assert self_s["simplicial.homology"] > 0 and unattributed >= 0
