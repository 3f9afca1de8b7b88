"""One measured process of the benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so module-level caches of the library start cold, as they do for a user of
the command line.  The script sets the library up, runs its operations,
checks their outputs and prints one JSON object as its last line of output.

    python3 perfbench/worker.py '{"workload": "member-path", "seed": 1,
                                  "mode": "ops", "seconds": 10}'

Modes: ``setup`` only sets up.  ``once`` makes one learning run on learn
workloads and one pass over the grid on membership workloads.  ``ops`` is
``once``, except that membership workloads repeat the pass until ``seconds``
of query time have passed.  ``traced`` is ``once`` with every layer wrapped
by the tracer.

An op is one learner stage (one ``Learner.observe`` call) or one membership
query.  ``op_s[i]`` lists the times of every repeat of the i-th op in this
process; the same seed gives the same ops in every process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "clausegraph" / "data"

# learn workloads present the target language for ``cycles`` full cycles, in
# a fixed ``order`` of members named by their sorted vertex labels
WORKLOADS = {
    "learn-twin": {"kind": "learn", "target": "twin", "cap": 5, "cycles": 2,
                   "order": ("ab", "aa", "aab", "aaaa", "aaab", "aaaab")},
    "learn-path": {"kind": "learn", "target": "path", "cap": 7, "cycles": 2,
                   "order": ("aa", "aaa", "aaaa", "aaaaa", "aaaaaa", "aaaaaaa")},
    "member-path": {"kind": "member", "target": "path"},
    "member-twin": {"kind": "member", "target": "twin"},
}


PROBES_PER_STAGE = 4  # probes after each learner stage
PROBES_PER_SETUP = 8  # probes after a set-up


def probe_s() -> float:
    """Seconds taken by a fixed piece of dict, set, tuple and sort work, like
    the library's own: a gauge of how fast the host runs such code now.  It
    runs between ops, never inside a timed region."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1500):
        table[(i % 97, i % 89, i)] = frozenset((i, i + 1, i % 7))
    adjacency: dict = {}
    for (a, _, _), members in sorted(table.items(), key=lambda kv: kv[0][::-1]):
        adjacency.setdefault(a, set()).update(members)
    return time.perf_counter() - t0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload: dict, recorder=None):
    """Import the library and load the bundled grammar and params; on learn
    workloads also build the teacher's language.  Returns the seconds this
    took and the loaded objects."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import clausegraph  # noqa: F401  (the import is part of set-up)
    from clausegraph import formats, teacher as teacher_mod

    if recorder is not None:
        import tracer
        tracer.install(recorder)
    target = workload["target"]
    gamma = formats.load_grammar(DATA / f"{target}_grammar.json")
    params = formats.load_params(DATA / f"{target}_params.json")
    teacher = None
    if workload["kind"] == "learn":
        teacher = teacher_mod.Teacher(gamma, params, size_cap=workload["cap"])
        teacher.language
    return time.perf_counter() - t0, gamma, params, teacher


def learn_op(workload: dict, seed: int, params, teacher, check: bool) -> dict:
    """One learning run over the presentation seeded by ``seed``, each stage
    timed on its own.  The language check runs after the timed region."""
    import inputs
    from clausegraph import learner as learner_mod
    from clausegraph.graphs import canonical_key, closed
    from clausegraph.teacher import generate_language

    by_labels = {"".join(sorted(g.vlabel.values())): g for g in teacher.language}
    if (len(by_labels) != len(teacher.language)
            or sorted(by_labels) != sorted(workload["order"])):
        raise ValueError(f"order {workload['order']} is not the target language")
    language = [by_labels[labels] for labels in workload["order"]]
    order = inputs.presentation(language, seed)
    stages = workload["cycles"] * len(order)
    learner = learner_mod.Learner(teacher.answer, params)
    op_s, probes = [], []
    for i in range(stages):
        t0 = time.perf_counter()
        try:
            learner.observe(order[i % len(order)])
        except Exception as exc:  # an exception fails the run, not the benchmark
            op_s.append(time.perf_counter() - t0)
            return {"op_s": [[t] for t in op_s], "probe_s": probes,
                    "rss_mb": _rss_mb(),
                    "errors": [f"stage {i + 1}: {type(exc).__name__}: {exc}"]}
        op_s.append(time.perf_counter() - t0)
        probes += [probe_s() for _ in range(PROBES_PER_STAGE)]
    rss = _rss_mb()
    records = learner.records
    out = {
        "op_s": [[t] for t in op_s],
        "probe_s": probes,
        "rss_mb": rss,
        "queries_total": teacher.queries_total,
        "queries_unique": teacher.queries_unique,
        "converge_stage": learner.stable_from(),
        "hypothesis_clauses": len(records[-1].hypothesis.clauses),
        "digest": records[-1].hypothesis_digest,
        "steady_ms": 1000 * statistics.median(
            r.wall_time for r in records[len(order):]),
        "errors": [],
    }
    # identified: stable through the whole second cycle
    if out["converge_stage"] is None or out["converge_stage"] > len(order) + 1:
        out["errors"].append(f"not converged: stable_from={out['converge_stage']}")
    if check:
        got = generate_language(records[-1].hypothesis, params, workload["cap"])
        want = {canonical_key(closed(g)) for g in language}
        if {canonical_key(closed(g)) for g in got} != want:
            out["errors"].append(
                f"hypothesis language differs from the target at cap {workload['cap']}")
    return out


def member_ops(workload: dict, seed: int, gamma, params,
               seconds: float, passes: int = 0) -> dict:
    """Closed loop with one caller over whole passes of the grid: each query
    is sent after the previous one returned.  Every pass asks the same
    queries, each graph rebuilt as a fresh object.  Stops after ``passes``
    passes, or once ``seconds`` of query time have passed and every query
    has run, which may be within a pass.  The verdicts of the first pass are
    returned; every query is checked."""
    import inputs
    from clausegraph import membership
    from clausegraph.graphs import LabeledGraph

    cells = inputs.membership_inputs(workload["target"], seed)
    op_s = [[] for _ in cells]
    verdicts, errors, probes = [], [], []
    spent, asked = 0.0, 0
    while asked < len(cells) or (spent < seconds if not passes
                                 else asked < passes * len(cells)):
        i = asked % len(cells)
        kind, n, vlabel, edges, expected = cells[i]
        probes.append(probe_s())
        g = LabeledGraph(vlabel, edges)
        t0 = time.perf_counter()
        try:
            got = membership.member(gamma, gamma.start, g, params)
        except Exception as exc:  # an exception fails the op, not the run
            got = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        spent += elapsed
        asked += 1
        op_s[i].append(elapsed)
        if len(op_s[i]) == 1:
            verdicts.append(got)
        if got is not expected:
            errors.append(f"{kind} n={n}: expected {expected}, got {got}")
    return {"op_s": op_s, "probe_s": probes, "rss_mb": _rss_mb(),
            "verdicts": verdicts, "errors": errors}


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    recorder = None
    if mode == "traced":
        import tracer
        recorder = tracer.Tracer()
    setup_s, gamma, params, teacher = setup(workload, recorder)
    if mode == "setup":
        return {"setup_s": setup_s,
                "probe_s": [probe_s() for _ in range(PROBES_PER_SETUP)]}
    root_before = recorder.root_s if recorder else 0.0
    if workload["kind"] == "learn":
        out = learn_op(workload, spec["seed"], params, teacher,
                       check=mode != "traced")
    else:
        out = member_ops(workload, spec["seed"], gamma, params,
                         spec.get("seconds", 0), passes=0 if mode == "ops" else 1)
    out["setup_s"] = setup_s
    # a wrong learning run fails all its stages; a query fails on its own
    ops = sum(len(times) for times in out["op_s"])
    out["failed"] = (ops if out["errors"] else 0) if workload["kind"] == "learn" else len(out["errors"])
    if recorder is not None:
        out["root_coverage"] = (recorder.root_s - root_before) / sum(map(sum, out["op_s"]))
        out["spans"] = recorder.stats
        out["counts"] = recorder.counts
        out["edges"] = [[parent, child, calls, total]
                        for (parent, child), (calls, total) in recorder.edges.items()]
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
