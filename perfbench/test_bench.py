"""Checks of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The expected verdicts of the membership workloads come from how each input
is built; here they are checked against the independent top-down derivation
search of the test suite on every grid kind up to 8 vertices.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from clausegraph.grammars import path_grammar, twin_grammar  # noqa: E402
from tests.oracles import TopDownOracle  # noqa: E402

GRAMMARS = {"path": (path_grammar, inputs.PATH_KINDS),
            "twin": (twin_grammar, inputs.TWIN_KINDS)}


@pytest.mark.parametrize("target", sorted(GRAMMARS))
def test_expected_verdicts_match_top_down_oracle(target):
    build_grammar, kinds = GRAMMARS[target]
    gamma, params = build_grammar()
    oracle = TopDownOracle(gamma, params.delta)
    rng = random.Random(0)
    for kind in kinds:
        for n in range(4, 9):
            vlabel, edges, expected = inputs.build(kind, n)
            graph = inputs.renumber(vlabel, edges, rng)
            assert oracle.member(graph) == expected, (target, kind, n)


def test_membership_inputs_are_seeded():
    a = inputs.membership_inputs("path", 3)
    b = inputs.membership_inputs("path", 3)
    c = inputs.membership_inputs("path", 4)
    assert a == b
    assert [(k, n) for k, n, *_ in a] != [(k, n) for k, n, *_ in c]
    assert sorted(a) == sorted(c)  # the same graphs, in another order
    assert sorted((k, n) for k, n, *_ in a) == sorted(inputs.grid("path"))


def test_op_times_scale_each_process_by_its_own_probes():
    ref = run.PROBE_REF_S
    quiet = {"op_s": [[0.010, 0.012], [0.100]], "probe_s": [ref, ref, ref]}
    busy = {"op_s": [[0.020], [0.200]], "probe_s": [2 * ref, 2 * ref]}
    times, fewest = run.op_times([quiet, busy], scaled=True)
    assert times == pytest.approx([0.010, 0.100])  # medians of 10, 12, 10 and 100, 100
    assert fewest == 2
    assert run.op_times([quiet, busy], scaled=False)[0] == pytest.approx([0.012, 0.150])
    metrics = run.op_metrics([0.001, 0.002, 0.003, 0.010])
    assert metrics["op_midmean_ms"][0] == pytest.approx(2.5)
    assert metrics["op_tail_ms"][0] == pytest.approx(10.0)
    assert metrics["ops_per_s"][0] == pytest.approx(4 / 0.016)


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = t.wrap("graphs.compose", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    t.wrap("graphs.realize", outer)()
    calls, total, own = t.stats["graphs.realize"]
    assert calls == 1 and total >= 0.03
    assert abs(own - (total - t.stats["graphs.compose"][1])) < 1e-9
    assert t.edges[("graphs.realize", "graphs.compose")][0] == 1
    assert t.root_s == total


def test_traced_worker_counts_every_call_site():
    spec = {"workload": "member-path", "seed": 1, "mode": "traced"}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = out["spans"]
    queries = len(inputs.grid("path"))
    assert out["errors"] == []
    assert spans["membership.member"][0] == queries
    assert spans["membership.derive_fixpoint"][0] == queries
    # iso_check is reached only through the name imported into membership
    assert spans["graphs.iso_check"][0] > 0
    assert out["root_coverage"] > 0.95


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "member-path",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
