"""clausegraph benchmark: learning and membership workloads.

    python3 perfbench/run.py --workload learn-twin --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (``worker.py``) with ``PYTHONHASHSEED`` fixed, one at a time.
Every op of a run is repeated in several processes, each repeat is scaled
to a reference host speed by a probe timed in its own process, and each
op's time is the median of its scaled repeats, so that most of the load
from elsewhere on a shared host drops out.

The report goes to standard output, one metric a line with its unit; the
last line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, timed
with tracing off.  With ``--trace 1`` they are the per-layer ones, from a
run with every layer wrapped, beside an untraced run of the same operation.
The exit code is 0 only when every output was correct.  See ``README.md``
for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES  # noqa: E402
from worker import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SETUP_PER_ROUND = 4  # set-ups before each op process
SETUP_RUNS = 16  # fewest set-ups in a run
MEMBER_PROCESSES = 4  # membership workloads split their window over this many
# median of worker.probe_s on a quiet shared 2-core host (Python 3.11.7): the
# host speed that the reported times are scaled to
PROBE_REF_S = 0.0014
DEADLINE_S = 170  # the whole run must end within 180 s
COUNT_KEYS = ("queries_total", "queries_unique", "converge_stage",
              "hypothesis_clauses", "digest")


class ChildFailed(RuntimeError):
    pass


def child(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {spec} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {spec} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def middle_half(values) -> list:
    """The values between the first and third quartile, ends dropped."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return ordered[quarter:len(ordered) - quarter]


def slowest_quarter(values) -> list:
    """The slowest quarter of ``values``, at least one value."""
    ordered = sorted(values, reverse=True)
    return ordered[:max(1, len(ordered) // 4)]


def same_work(a: dict, b: dict) -> list:
    """Differences in deterministic outputs between two runs of one op."""
    keys = [k for k in (*COUNT_KEYS, "verdicts") if k in a or k in b]
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in keys if a.get(k) != b.get(k)]


def process_scale(result: dict) -> float:
    """The factor that scales a worker's times to the reference host speed:
    the reference probe time over the median of the worker's own probes.  A
    worker that failed before its first probe is left unscaled."""
    probes = result["probe_s"]
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def op_times(results: list, scaled: bool) -> tuple:
    """(time of each distinct op: the median over all its repeats in the
    run, each repeat scaled by its own process if ``scaled``; fewest repeats
    of any op)."""
    repeats: dict = {}
    for r in results:
        scale = process_scale(r) if scaled else 1.0
        for i, times in enumerate(r["op_s"]):
            repeats.setdefault(i, []).extend(scale * t for t in times)
    return ([statistics.median(times) for times in repeats.values()],
            min(map(len, repeats.values())))


def op_metrics(op_s: list) -> dict:
    """The end-to-end metrics taken over the op times of a run."""
    return {
        "op_midmean_ms": (1000 * statistics.mean(middle_half(op_s)), "ms"),
        "op_tail_ms": (1000 * statistics.mean(slowest_quarter(op_s)), "ms"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
    }


def measure(name: str, seed: int, seconds: int, deadline: float):
    """Untraced runs: set-up several times, then repeat the workload's ops
    for ``seconds`` of op time.  Returns (metrics, attempted, failed,
    errors, notes)."""
    workload = WORKLOADS[name]
    base = {"workload": name, "seed": seed}
    # bytecode, as an installed package has it, whether or not this
    # environment lets imports write it
    compileall.compile_dir(ROOT / "src" / "clausegraph", quiet=1)
    # rounds of a few set-ups and one op process, so that set-ups and ops
    # are sampled across the whole run and not in one stretch of host load.
    # A learn op process makes one learning run; a membership one repeats
    # the grid for its share of the window.  Every op process does the same
    # ops, so each op's repeats are pooled over all processes.
    chunk = seconds / MEMBER_PROCESSES if workload["kind"] == "member" else 0
    setups, results = [], []
    while not results or sum(sum(map(sum, r["op_s"])) for r in results) < seconds:
        setups += [child({**base, "mode": "setup"}, deadline)
                   for _ in range(SETUP_PER_ROUND)]
        results.append(child({**base, "mode": "ops", "seconds": chunk}, deadline))
    while len(setups) < SETUP_RUNS:
        setups.append(child({**base, "mode": "setup"}, deadline))
    errors = [e for r in results for e in r["errors"]]
    errors += [f"nondeterministic across repeats: {d}"
               for r in results[1:] for d in same_work(results[0], r)]
    # every time is scaled from the host's speed while it was taken, as the
    # probes in its own process saw it, to the reference speed
    op_s, fewest = op_times(results, scaled=True)
    metrics = {
        "setup_s": (statistics.median(process_scale(r) * r["setup_s"] for r in setups), "s"),
        **op_metrics(op_s),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    unscaled = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
                **op_metrics(op_times(results, scaled=False)[0])}
    notes = [" ".join(f"{k}={r[k]}" for k in COUNT_KEYS if k in r) for r in results]
    notes = [f"process {i}: {line}" for i, line in enumerate(notes) if line]
    host_ms = 1000 * statistics.median(t for r in results for t in r["probe_s"])
    notes.append(f"host.probe_ms {host_ms:.4g} ms in the op processes, against"
                 f" {1000 * PROBE_REF_S:.4g} ms on the reference host")
    notes.append("unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in unscaled.items()))
    notes.append(f"scaled, not gated: op_p50_ms {1000 * statistics.median(op_s):.6g}"
                 f" ms, op_p90_ms {1000 * percentile(op_s, 0.9):.6g} ms (nearest rank)")
    notes.append(f"distinct ops: {len(op_s)}, each run at least {fewest} times"
                 f" in {len(results)} processes; set-ups: {len(setups)}")
    attempted = sum(len(times) for r in results for times in r["op_s"])
    failed = sum(r["failed"] for r in results)
    return metrics, attempted, failed, errors, notes


def measure_traced(name: str, seed: int, deadline: float):
    """One untraced and two traced runs of the same operation.  Returns
    (metrics, attempted, failed, errors, notes)."""
    base = {"workload": name, "seed": seed}
    plain = child({**base, "mode": "once"}, deadline)
    traced = [child({**base, "mode": "traced"}, deadline) for _ in range(2)]
    first = traced[0]
    errors = list(plain["errors"]) + [e for t in traced for e in t["errors"]]
    errors += [f"traced run differs: {d}" for d in same_work(plain, first)]
    errors += [f"nondeterministic {d}" for d in same_work(first, traced[1])]
    if first["counts"] != traced[1]["counts"]:
        errors.append("nondeterministic trace counts between two traced runs")
    calls = {n: s[0] for n, s in first["spans"].items()}
    if calls != {n: s[0] for n, s in traced[1]["spans"].items()}:
        errors.append("nondeterministic call counts between two traced runs")
    for t in traced:
        if t["root_coverage"] < 0.95:
            errors.append(f"root spans cover only {t['root_coverage']:.3f} of the op")

    metrics = {}
    for span in SPAN_NAMES:
        n_calls, total, own = first["spans"][span]
        metrics[f"{span}.calls"] = (n_calls, "count")
        metrics[f"{span}.total_s"] = (total, "s")
        metrics[f"{span}.self_s"] = (own, "s")
    counts = first["counts"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    spans = first["spans"]
    metrics.update({
        "membership.find.hit_ratio": (
            ratio(counts.get("find.hits", 0), spans["membership.FragmentUniverse.find"][0]),
            "ratio"),
        "membership.universe_fragments": (counts.get("universe_fragments", 0), "count"),
        "membership.fixpoint_rounds": (counts.get("fixpoint_rounds", 0), "count"),
        "teacher.answer.cache_hit_ratio": (
            ratio(first.get("queries_total", 0) - first.get("queries_unique", 0),
                  first.get("queries_total", 0)), "ratio"),
        "learner.admit_clause.admitted_ratio": (
            ratio(counts.get("admit.admitted", 0), spans["learner.admit_clause"][0]),
            "ratio"),
        "clauses.ClauseSystem.kept_ratio": (
            ratio(counts.get("system.kept", 0), counts.get("system.offered", 0)), "ratio"),
        "boundary.reps": (counts.get("boundary.reps", 0), "count"),
        "learner.observe.steady_ms": (plain.get("steady_ms", 0.0), "ms"),
        "teacher.queries_total": (plain.get("queries_total", 0), "count"),
        "teacher.queries_unique": (plain.get("queries_unique", 0), "count"),
        "learner.converge_stage": (plain.get("converge_stage") or 0, "count"),
        "learner.hypothesis_clauses": (plain.get("hypothesis_clauses", 0), "count"),
        "trace.overhead_ratio": (
            statistics.median(sum(map(sum, t["op_s"])) for t in traced)
            / sum(map(sum, plain["op_s"])),
            "ratio"),
        "trace.root_coverage": (min(t["root_coverage"] for t in traced), "ratio"),
        "host.probe_ms": (1000 * statistics.median(
            t for r in (plain, *traced) for t in r["probe_s"]), "ms"),
    })
    self_s = {span: spans[span][2] for span in SPAN_NAMES}
    traced_self = sum(self_s.values())
    notes = ["self time by span, share of all traced self time:"]
    notes += [f"  {span} {own:.4f} s {own / traced_self:.1%}"
              for span, own in sorted(self_s.items(), key=lambda kv: -kv[1])[:10]]
    notes.append("heaviest spans by total time (parent -> child: calls, total_s):")
    notes += [f"  {parent or '<root>'} -> {span}: {n}, {total:.4f}"
              for parent, span, n, total in sorted(first["edges"], key=lambda e: -e[3])[:12]]
    runs = [plain, *traced]
    attempted = sum(len(times) for r in runs for times in r["op_s"])
    failed = sum(r["failed"] for r in runs)
    return metrics, attempted, failed, errors, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clausegraph" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, attempted, failed, errors, notes = measure_traced(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, errors, notes = measure(
                args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("\n".join(notes))
    for error in errors:
        print(f"FAIL {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
