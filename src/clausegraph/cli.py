"""Command-line entry point.

Thin adapters only: every subcommand parses files, calls one library
function, and prints results.  Exit status 0 covers successful runs
including negative answers, 1 covers domain failures (unreadable or invalid
inputs), 2 covers usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .boundary import enumerate_brep, rank_counts
from .clauses import check_bounded, check_degree_safe
from .formats import (
    dump_graphs,
    load_grammar,
    load_graphs,
    load_params,
    dump_grammar,
)
from .graphs import closed, key_digest
from .learner import Learner
from .membership import format_tree, member
from .teacher import Teacher, generate_language

log = logging.getLogger("clausegraph")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clausegraph",
        description="Graph grammars with fixed interfaces: membership, "
                    "generation, and learning from positive examples plus "
                    "membership queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("brep", help="enumerate boundary representations of a sample")
    p.add_argument("--sample", required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("check", help="validate a grammar against parameter bounds")
    p.add_argument("--grammar", required=True)
    p.add_argument("--params", required=True)

    p = sub.add_parser("member", help="decide membership of a graph")
    p.add_argument("--grammar", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--tree", action="store_true",
                   help="print a derivation tree for positive answers")

    p = sub.add_parser("oracle", help="answer one membership query (alias of member)")
    p.add_argument("--grammar", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)

    p = sub.add_parser("generate", help="enumerate the language up to a vertex cap")
    p.add_argument("--grammar", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn", help="run the learner against a simulated teacher")
    p.add_argument("--target", help="target grammar file")
    p.add_argument("--params", help="parameter file")
    p.add_argument("--cap", type=int, help="presentation vertex cap")
    p.add_argument("--stages", type=int, help="number of stages to run")
    p.add_argument("--seed", type=int, default=None,
                   help="permute the presentation order")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--replay", help="re-verify a recorded trace file")
    return parser


def _out_dir(value) -> Path:
    out = Path(os.environ.get("CLAUSEGRAPH_OUT", "") or value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_brep(args) -> int:
    sample = load_graphs(args.sample)
    reps = enumerate_brep([g.graph for g in sample], args.w, args.delta)
    for rep in reps:
        eb = ",".join(f"{u}-{v}" for u, v in sorted(rep.spec.boundary_edges))
        print(f"graph={rep.spec.source} beta={rep.spec.beta} "
              f"eb=[{eb}] key={key_digest(rep.fragment)}")
    for rank, count in rank_counts(reps).items():
        print(f"rank {rank}: {count} representations")
    return 0


def _cmd_check(args) -> int:
    gamma = load_grammar(args.grammar)
    params = load_params(args.params)
    violations = check_bounded(gamma, params)
    for v in violations:
        print(f"violation: {v}")
    print(f"degree-safe: {'yes' if check_degree_safe(gamma) else 'no'}")
    print(f"bounded: {'yes' if not violations else 'no'}")
    return 0


def _load_grammar_within_w(path, params):
    """Load a grammar whose variables all have rank at most ``w``.  ``sub_w``
    offers no fragment of a higher rank, so such a grammar would answer a
    silent NO for every graph."""
    gamma = load_grammar(path)
    for i, cl in enumerate(gamma.clauses):
        for lab, rank in sorted(cl.variables().items()):
            if rank > params.w:
                raise ValueError(f"grammar {path}: clause {i}: variable {lab!r} "
                                 f"has rank {rank} > w={params.w}")
    return gamma


def _cmd_member(args, want_tree: bool) -> int:
    params = load_params(args.params)
    gamma = _load_grammar_within_w(args.grammar, params)
    graphs = load_graphs(args.graph)
    for g in graphs:
        if not g.closed:
            raise ValueError("graph: membership queries take closed graphs "
                             "(empty interface)")
        if want_tree:
            ok, tree = member(gamma, gamma.start, g.graph, params, want_tree=True)
            print("YES" if ok else "NO")
            if ok and tree is not None:
                print(format_tree(tree))
        else:
            print("YES" if member(gamma, gamma.start, g.graph, params) else "NO")
    return 0


def _cmd_generate(args) -> int:
    if args.cap < 0:
        raise ValueError("--cap: must be non-negative")
    gamma = load_grammar(args.grammar)
    params = load_params(args.params)
    teacher = Teacher(gamma, params, size_cap=args.cap)
    out = _out_dir(args.out)
    for i, g in enumerate(teacher.language):
        dump_graphs([closed(g)], out / f"member_{i:03d}.json")
    print(f"wrote {len(teacher.language)} graphs to {out}")
    return 0


_CONFIG_FLAGS = {"target": "target", "params": "params", "size_cap": "cap",
                 "stages": "stages", "check_cap": None, "seed": "seed",
                 "out": "out"}


def _checked_config(loaded, flags) -> dict:
    """A learn config from a config object and explicit flags (flags win),
    every field checked.  ``flags`` is None on replay: a trace's config is
    taken as recorded and needs no output directory."""
    config = dict.fromkeys(_CONFIG_FLAGS)
    if not isinstance(loaded, dict):
        raise ValueError("config: expected an object")
    for key in loaded:
        if key not in config:
            raise ValueError(f"config.{key}: unknown field")
    config.update(loaded)
    config.update(flags or {})
    required = ("target", "params", "size_cap", "stages")
    for key in required + (("out",) if flags is not None else ()):
        if config[key] is None:
            hint = f" (give --{_CONFIG_FLAGS[key]})" if flags is not None else ""
            raise ValueError(f"config.{key}: missing{hint}")
    for key in ("size_cap", "stages", "check_cap", "seed"):
        if config[key] is not None and type(config[key]) is not int:
            raise ValueError(f"config.{key}: expected an integer")
    for key in ("target", "params", "out"):
        if config[key] is not None and not isinstance(config[key], str):
            raise ValueError(f"config.{key}: expected a path string")
    for key in ("size_cap", "stages"):
        if config[key] < 0:
            raise ValueError(f"config.{key}: must be non-negative")
    if config["check_cap"] is not None:
        if config["check_cap"] > config["size_cap"]:
            raise ValueError("config.check_cap: must not exceed size_cap")
        if config["stages"] < 1:
            raise ValueError("config.check_cap: needs at least one stage")
    return config


def _learn_config(args) -> dict:
    loaded = json.loads(Path(args.config).read_text()) if args.config else {}
    flags = {key: getattr(args, flag) for key, flag in _CONFIG_FLAGS.items()
             if flag is not None and getattr(args, flag) is not None}
    return _checked_config(loaded, flags)


def _run_learn(config: dict) -> dict:
    params = load_params(config["params"])
    gamma = _load_grammar_within_w(config["target"], params)
    teacher = Teacher(gamma, params, size_cap=config["size_cap"])
    learner = Learner(teacher.answer, params)
    presentation = teacher.presentation(seed=config.get("seed"))
    stages = []
    for _ in range(config["stages"]):
        rec = learner.observe(next(presentation))
        stages.append(rec)
        log.info("stage %d: update=%s F=%d R=%d clauses=%d",
                 rec.stage, rec.update_fired, rec.basis_size,
                 rec.residual_size, rec.counters["admitted_clauses"])
    return {
        "teacher": teacher,
        "learner": learner,
        "stages": stages,
    }


def _cmd_learn(args) -> int:
    if args.replay:
        return _cmd_replay(args)
    config = _learn_config(args)
    result = _run_learn(config)
    learner, teacher, stages = result["learner"], result["teacher"], result["stages"]
    out = _out_dir(config["out"])
    trace_stages = []
    for rec in stages:
        hyp_file = f"stage_{rec.stage:03d}.json"
        dump_grammar(rec.hypothesis, out / hyp_file)
        entry = rec.summary()
        entry["hypothesis_file"] = hyp_file
        trace_stages.append(entry)
    trace = {
        "config": {k: config[k] for k in
                   ("target", "params", "size_cap", "stages", "check_cap", "seed")},
        "stages": trace_stages,
        "convergence": {
            "stable_from": learner.stable_from(),
            "final_digest": stages[-1].hypothesis_digest if stages else None,
        },
        "teacher_queries": {"total": teacher.queries_total,
                            "unique": teacher.queries_unique,
                            "cache_verified": teacher.verify_cache()},
    }
    if config["check_cap"] is not None:
        trace["agreement"] = _agreement(learner.hypothesis, teacher,
                                        config["check_cap"])
    (out / "trace.json").write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
    print(json.dumps(trace["convergence"], sort_keys=True))
    print(f"wrote {len(stages)} stage hypotheses and trace.json to {out}")
    return 0


def _agreement(hypothesis, teacher: Teacher, cap: int) -> dict:
    """Compare the final hypothesis' language with the target's up to ``cap``
    vertices by canonical key; name up to 5 graphs in one but not the other."""
    languages = [generate_language(gamma, teacher.params, cap)
                 for gamma in (hypothesis, teacher.target)]
    learned, target = ({c.key: c for c in map(closed, lang)} for lang in languages)
    differing = sorted(learned.keys() ^ target.keys())
    graphs = {**learned, **target}
    return {"agree": not differing,
            "differing": [key_digest(graphs[k]) for k in differing[:5]]}


def _cmd_replay(args) -> int:
    trace = json.loads(Path(args.replay).read_text())
    if not isinstance(trace, dict):
        raise ValueError("trace: expected an object")
    config = _checked_config(trace.get("config"), None)
    recorded = trace.get("stages")
    if not isinstance(recorded, list):
        raise ValueError("trace.stages: expected a list")
    for i, old in enumerate(recorded):
        if not isinstance(old, dict):
            raise ValueError(f"trace.stages[{i}]: expected an object")
    result = _run_learn(config)
    fresh = [rec.summary() for rec in result["stages"]]
    mismatches = []
    for old, new in zip(recorded, fresh):
        for field in ("hypothesis_digest", "update_fired", "basis_size",
                      "residual_size", "oracle_queries", "candidates"):
            if old.get(field) != new.get(field):
                mismatches.append(
                    f"stage {new['stage']}: {field} {old.get(field)!r} != {new.get(field)!r}")
    if len(recorded) != len(fresh):
        mismatches.append(f"stage count {len(recorded)} != {len(fresh)}")
    if mismatches:
        for m in mismatches:
            print(f"replay mismatch: {m}")
        return 1
    print(f"replay OK: {len(fresh)} stages verified")
    return 0


def dispatch(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("CLAUSEGRAPH_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "brep":
            return _cmd_brep(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "member":
            return _cmd_member(args, want_tree=args.tree)
        if args.command == "oracle":
            return _cmd_member(args, want_tree=False)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "learn":
            return _cmd_learn(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
