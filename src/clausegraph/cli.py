"""Command-line entry point.

Thin adapters only: every subcommand parses files, calls the library, and
prints results; bounds such as w are the library's to check.  ``learn``
and ``learn --replay`` share one trace, built by ``_run_learn``, and a
replay compares every recorded field but the stage file names.
Exit status 0 covers successful runs including negative answers, 1 covers
domain failures (unreadable or invalid inputs), 2 covers usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
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
    read_json,
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
    grammar = argparse.ArgumentParser(add_help=False)
    grammar.add_argument("--grammar", required=True)
    grammar.add_argument("--params", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)

    p = sub.add_parser("brep", help="enumerate boundary representations of a sample")
    p.add_argument("--sample", required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(run=_cmd_brep)

    p = sub.add_parser("check", parents=[grammar],
                       help="validate a grammar against parameter bounds")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("member", parents=[grammar, graph],
                       help="decide membership of a graph")
    p.add_argument("--tree", action="store_true",
                   help="print a derivation tree for positive answers")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("oracle", parents=[grammar, graph],
                       help="answer one membership query (alias of member)")
    p.set_defaults(run=_cmd_member, tree=False)

    p = sub.add_parser("generate", parents=[grammar],
                       help="enumerate the language up to a vertex cap")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_generate)

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
    p.set_defaults(run=_cmd_learn)
    return parser


def _out_dir(value) -> Path:
    out = Path(os.environ.get("CLAUSEGRAPH_OUT", "") or value)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_brep(args) -> int:
    sample = load_graphs(args.sample)
    reps = enumerate_brep([g.graph for g in sample], args.w, args.delta)
    for rep in reps:
        eb = ",".join(f"{u}-{v}" for u, v in sorted(rep.boundary_edges))
        print(f"graph={rep.source} beta={rep.beta} "
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


def _cmd_member(args) -> int:
    params = load_params(args.params)
    gamma = load_grammar(args.grammar)
    graphs = load_graphs(args.graph)
    for g in graphs:
        if g.interface:
            raise ValueError("graph: membership queries take closed graphs "
                             "(empty interface)")
        answer = member(gamma, gamma.start, g.graph, params, want_tree=args.tree)
        ok, tree = answer if args.tree else (answer, None)
        print("YES" if ok else "NO")
        if tree is not None:
            print(format_tree(tree))
    return 0


def _cmd_generate(args) -> int:
    if args.cap < 0:
        raise ValueError("--cap: must be non-negative")
    members = generate_language(load_grammar(args.grammar), load_params(args.params),
                                args.cap)
    out = _out_dir(args.out)
    for i, g in enumerate(members):
        dump_graphs([closed(g)], out / f"member_{i:03d}.json")
    print(f"wrote {len(members)} graphs to {out}")
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
    for key in ("size_cap", "stages", "check_cap"):
        if config[key] is not None and config[key] < 0:
            raise ValueError(f"config.{key}: must be non-negative")
    if config["check_cap"] is not None:
        if config["check_cap"] > config["size_cap"]:
            raise ValueError("config.check_cap: must not exceed size_cap")
        if config["stages"] < 1:
            raise ValueError("config.check_cap: needs at least one stage")
    return config


def _run_learn(config: dict) -> dict:
    """Run the learner as ``config`` says.  Returns the stage records and
    the whole trace that ``learn`` writes and ``--replay`` compares, less
    the stage file names, which only ``learn`` knows."""
    params = load_params(config["params"])
    gamma = load_grammar(config["target"])
    teacher = Teacher(gamma, params, size_cap=config["size_cap"])
    learner = Learner(teacher.answer, params)
    presentation = teacher.presentation(seed=config["seed"])
    stages = []
    for _ in range(config["stages"]):
        rec = learner.observe(next(presentation))
        stages.append(rec)
        log.info("stage %d: update=%s F=%d R=%d clauses=%d",
                 rec.stage, rec.update_fired, rec.basis_size,
                 rec.residual_size, rec.counters["admitted_clauses"])
    trace = {
        "config": {k: config[k] for k in _CONFIG_FLAGS if k != "out"},
        "stages": [rec.summary() for rec in stages],
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
    return {"stages": stages, "trace": trace}


def _cmd_learn(args) -> int:
    if args.replay:
        return _cmd_replay(args)
    flags = {key: getattr(args, flag) for key, flag in _CONFIG_FLAGS.items()
             if flag is not None and getattr(args, flag) is not None}
    config = _checked_config(read_json(args.config) if args.config else {}, flags)
    result = _run_learn(config)
    stages, trace = result["stages"], result["trace"]
    out = _out_dir(config["out"])
    entries = trace["stages"]
    for i, (rec, entry) in enumerate(zip(stages, entries)):
        entry["hypothesis_file"] = f"stage_{rec.stage:03d}.json"
        # a stage that kept its hypothesis object writes the same bytes as the
        # stage before; equal digests do not promise the same clause order
        if i and rec.hypothesis is stages[i - 1].hypothesis:
            shutil.copyfile(out / entries[i - 1]["hypothesis_file"],
                            out / entry["hypothesis_file"])
        else:
            dump_grammar(rec.hypothesis, out / entry["hypothesis_file"])
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
    trace = read_json(args.replay)
    if not isinstance(trace, dict):
        raise ValueError("trace: expected an object")
    config = _checked_config(trace.get("config"), None)
    recorded = trace.get("stages")
    if not isinstance(recorded, list):
        raise ValueError("trace.stages: expected a list")
    for i, old in enumerate(recorded):
        if not isinstance(old, dict):
            raise ValueError(f"trace.stages[{i}]: expected an object")
    trace.setdefault("agreement", {})  # recorded only by a run with a check_cap
    sections = ("convergence", "teacher_queries", "agreement")
    for section in sections:
        if not isinstance(trace.get(section), dict):
            raise ValueError(f"trace.{section}: expected an object")
    fresh = _run_learn(config)["trace"]
    pairs = [(f"stage {new['stage']}: ", old, new)
             for old, new in zip(recorded, fresh["stages"])]
    pairs += [(f"{section}.", trace[section], fresh.get(section, {}))
              for section in sections]
    mismatches = []
    for prefix, old, new in pairs:
        for field in dict.fromkeys([*new, *old]):
            if field != "hypothesis_file" and old.get(field) != new.get(field):
                mismatches.append(
                    f"{prefix}{field} {old.get(field)!r} != {new.get(field)!r}")
    if len(recorded) != len(fresh["stages"]):
        mismatches.append(f"stage count {len(recorded)} != {len(fresh['stages'])}")
    if mismatches:
        for m in mismatches:
            print(f"replay mismatch: {m}")
        return 1
    print(f"replay OK: {len(fresh['stages'])} stages verified")
    return 0


def dispatch(argv=None) -> int:
    level = os.environ.get("CLAUSEGRAPH_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: CLAUSEGRAPH_LOG: unknown level {level!r}", file=sys.stderr)
        return 1
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
