import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import clausegraph
import clausegraph.cli as cli_mod
from clausegraph.cli import dispatch
from clausegraph.clauses import ParamTuple
from clausegraph.formats import (
    dump_graphs,
    dump_params,
    grammar_to_obj,
    load_grammar,
    load_graphs,
)
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import GraphWithInterface, closed, graph_from_parts
from clausegraph.teacher import generate_language


def data_path(name: str) -> str:
    return str(resources.files("clausegraph").joinpath(f"data/{name}"))


@pytest.fixture()
def path_files(tmp_path):
    graph = closed(graph_from_parts([(0, "a"), (1, "a"), (2, "a")],
                                    [(0, 1, "e"), (1, 2, "e")]))
    gpath = tmp_path / "graph.json"
    dump_graphs([graph], gpath)
    return {
        "grammar": data_path("path_grammar.json"),
        "params": data_path("path_params.json"),
        "graph": str(gpath),
    }


def test_member_yes(capsys, path_files):
    code = dispatch(["member", "--grammar", path_files["grammar"],
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "YES"


def test_member_no_is_exit_zero(capsys, tmp_path, path_files):
    tri = closed(graph_from_parts([(0, "a"), (1, "a"), (2, "a")],
                                  [(0, 1, "e"), (1, 2, "e"), (0, 2, "e")]))
    gpath = tmp_path / "tri.json"
    dump_graphs([tri], gpath)
    code = dispatch(["member", "--grammar", path_files["grammar"],
                     "--graph", str(gpath), "--params", path_files["params"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "NO"


def test_member_tree_output(capsys, path_files):
    code = dispatch(["member", "--grammar", path_files["grammar"],
                     "--graph", path_files["graph"],
                     "--params", path_files["params"], "--tree"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("YES")
    assert "via clause" in out


# sha256 of ``member --tree`` output over every member up to 7 vertices of
# each bundled grammar; pins which clause derives each node of each tree
@pytest.mark.parametrize("builder, digest", [
    (path_grammar, "1edffcf95fbbd7814d3135ebe620665290d8936e6a435d76f5b380fb8a597ffc"),
    (triangle_grammar, "97f01ed720d53c3b595d26228814a4f0b0510743f97b1ed649d79b0190b2bfa8"),
    (twin_grammar, "9957cf559ddeaed7841c721757e44e05d9ed04aa86f793f96d792f843e975a7c"),
], ids=["path", "triangle", "twin"])
def test_member_trees_are_pinned(capsys, tmp_path, builder, digest):
    name = builder.__name__.removesuffix("_grammar")
    gamma, params = builder()
    graphs = generate_language(gamma, params, 7)
    gpath = tmp_path / "members.json"
    dump_graphs([closed(g) for g in graphs], gpath)
    assert dispatch(["member", "--grammar", data_path(f"{name}_grammar.json"),
                     "--graph", str(gpath),
                     "--params", data_path(f"{name}_params.json"), "--tree"]) == 0
    out = capsys.readouterr().out
    assert out.count("YES") == len(graphs)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_alias(capsys, path_files):
    code = dispatch(["oracle", "--grammar", path_files["grammar"],
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "YES"


@pytest.mark.parametrize("command", ["member", "oracle"])
def test_graph_with_interface_is_domain_error(capsys, tmp_path, path_files, command):
    gpath = tmp_path / "open.json"
    dump_graphs([GraphWithInterface(graph_from_parts([(0, "a"), (1, "a")],
                                                     [(0, 1, "e")]), (0,))], gpath)
    code = dispatch([command, "--grammar", path_files["grammar"],
                     "--graph", str(gpath), "--params", path_files["params"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: graph: membership queries take closed graphs "
                            "(empty interface)\n")
    assert captured.out == ""


@pytest.mark.parametrize("content, message", [
    ("[]", "expected at least one graph, got an empty list"),
    ("7", "expected a graph object or a list of them"),
], ids=["empty-list", "number"])
@pytest.mark.parametrize("command", ["member", "oracle", "brep"])
def test_graph_file_without_a_graph_is_domain_error(capsys, tmp_path, path_files,
                                                     content, message, command):
    # an empty list must not pass as a silent non-answer: no output, exit 0
    gpath = tmp_path / "none.json"
    gpath.write_text(content)
    argv = (["brep", "--sample", str(gpath), "--w", "1", "--delta", "2"]
            if command == "brep" else
            [command, "--grammar", path_files["grammar"], "--graph", str(gpath),
             "--params", path_files["params"]])
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {gpath}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["brep", "--w", "1", "--delta", "2"], "required: --sample"),
    (["check", "--grammar", "g.json"], "required: --params"),
    (["member", "--graph", "x.json"], "required: --grammar, --params"),
    (["oracle", "--grammar", "g.json", "--params", "p.json"], "required: --graph"),
    (["generate", "--grammar", "g.json", "--params", "p.json", "--out", "o"],
     "required: --cap"),
    (["oracle", "--grammar", "g.json", "--params", "p.json", "--graph", "x.json",
      "--tree"], "unrecognized arguments: --tree"),
], ids=["brep", "check", "member", "oracle", "generate", "oracle-tree"])
def test_missing_flag_is_usage_error(capsys, argv, message):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_unreadable_file_is_domain_error(capsys, path_files):
    code = dispatch(["member", "--grammar", "/nonexistent.json",
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["member", "--grammar", "{grammar}", "--graph", "{deep}", "--params", "{params}"],
    ["member", "--grammar", "{deep}", "--graph", "{graph}", "--params", "{params}"],
    ["member", "--grammar", "{grammar}", "--graph", "{graph}", "--params", "{deep}"],
    ["learn", "--config", "{deep}"],
    ["learn", "--replay", "{deep}"],
], ids=["graph", "grammar", "params", "config", "replay"])
def test_deeply_nested_json_is_domain_error(capsys, tmp_path, path_files, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    names = {**path_files, "deep": str(deep)}
    assert dispatch([arg.format(**names) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {deep}: JSON nested too deeply to decode\n"
    assert captured.out == ""


@pytest.mark.parametrize("content", [b'{"a": ', b"\xff\xfe{}"],
                         ids=["truncated", "not-utf8"])
def test_undecodable_json_error_names_the_file(capsys, tmp_path, path_files, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = dispatch(["member", "--grammar", str(bad),
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.out == ""


def test_invalid_grammar_is_domain_error(capsys, tmp_path, path_files):
    obj = grammar_to_obj(load_grammar(path_files["grammar"]))
    obj["clauses"][1]["body"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = dispatch(["member", "--grammar", str(bad),
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    err = capsys.readouterr().err
    assert code == 1
    assert "clause" in err


@pytest.mark.parametrize("field, name", [
    ("vertices", "graph.vertices"),
    ("edges", "graph.edges"),
    ("hyperedges", "clauses[1].head.pattern.hyperedges"),
    ("predicates", "predicates"),
    ("clauses", "clauses"),
    ("body", "clauses[1].body"),
])
def test_non_list_field_is_domain_error(capsys, tmp_path, path_files, field, name):
    grammar = grammar_to_obj(load_grammar(path_files["grammar"]))
    graph = json.loads(Path(path_files["graph"]).read_text())
    clause = grammar["clauses"][1]
    holder = {"vertices": graph, "edges": graph,
              "hyperedges": clause["head"]["pattern"],
              "predicates": grammar, "clauses": grammar, "body": clause}[field]
    holder[field] = 7
    (tmp_path / "grammar.json").write_text(json.dumps(grammar))
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    code = dispatch(["member", "--grammar", str(tmp_path / "grammar.json"),
                     "--graph", str(tmp_path / "graph.json"),
                     "--params", path_files["params"]])
    assert code == 1
    assert f"error: {name}: expected a list, got 7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["member", "member --tree", "oracle", "learn"])
def test_variable_rank_above_w_is_domain_error(capsys, tmp_path, path_files, command):
    # the path grammar's growing clauses bind rank-2 variables, which sub_w
    # never offers at w=1: without the check every answer would be NO
    narrow = tmp_path / "narrow.json"
    dump_params(ParamTuple(m=3, s=1, t=1, w=1, d=2, delta=2, h_max=3), narrow)
    if command == "learn":
        argv = ["learn", "--target", path_files["grammar"], "--cap", "4",
                "--stages", "1", "--out", str(tmp_path / "out")]
    else:
        argv = [*command.split(), "--grammar", path_files["grammar"],
                "--graph", path_files["graph"]]
    code = dispatch(argv + ["--params", str(narrow)])
    captured = capsys.readouterr()
    assert code == 1
    assert "clause 1: variable 'y' has rank 2 > w=1" in captured.err
    assert captured.out == ""


def test_brep_output(capsys, tmp_path):
    edge = closed(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]))
    spath = tmp_path / "sample.json"
    dump_graphs([edge], spath)
    code = dispatch(["brep", "--sample", str(spath), "--w", "1", "--delta", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("graph=0") == 5
    assert "rank 0: 1 representations" in out
    assert "rank 1: 4 representations" in out


def test_brep_output_is_pinned(capsys, tmp_path):
    """sha256 of ``brep --w 1`` over every twin member up to 6 vertices."""
    gamma, params = twin_grammar()
    spath = tmp_path / "sample.json"
    dump_graphs([closed(g) for g in generate_language(gamma, params, 6)], spath)
    assert dispatch(["brep", "--sample", str(spath), "--w", "1", "--delta", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3fa534318b68e61965d1fcbca4d53de79ea35312282355f914902626cd7a0c1b"


def test_brep_rejects_negative_w(capsys, tmp_path):
    edge = closed(graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]))
    spath = tmp_path / "sample.json"
    dump_graphs([edge], spath)
    code = dispatch(["brep", "--sample", str(spath), "--w", "-1", "--delta", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "w: must be non-negative" in captured.err
    assert captured.out == ""


def test_check_reports_violations_and_safety(capsys, tmp_path, path_files):
    code = dispatch(["check", "--grammar", path_files["grammar"],
                     "--params", path_files["params"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "bounded: yes" in out
    assert "degree-safe: no" in out
    tight = tmp_path / "tight.json"
    dump_params(ParamTuple(m=0, s=1, t=1, w=2, d=2, delta=2, h_max=3), tight)
    code = dispatch(["check", "--grammar", path_files["grammar"],
                     "--params", str(tight)])
    out = capsys.readouterr().out
    assert code == 0
    assert "violation:" in out and "bounded: no" in out


def test_generate_writes_members(capsys, tmp_path, path_files):
    out_dir = tmp_path / "members"
    code = dispatch(["generate", "--grammar", path_files["grammar"],
                     "--params", path_files["params"],
                     "--cap", "4", "--out", str(out_dir)])
    assert code == 0
    files = sorted(out_dir.glob("member_*.json"))
    assert len(files) == 3
    sizes = sorted(load_graphs(f)[0].graph.n for f in files)
    assert sizes == [2, 3, 4]


def test_generate_rejects_negative_cap(capsys, tmp_path, path_files):
    out_dir = tmp_path / "members"
    code = dispatch(["generate", "--grammar", path_files["grammar"],
                     "--params", path_files["params"],
                     "--cap", "-1", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "--cap: must be non-negative" in captured.err
    assert captured.out == "" and not out_dir.exists()
    # a cap of 0 stays legal: the language has no member that small
    assert dispatch(["generate", "--grammar", path_files["grammar"],
                     "--params", path_files["params"],
                     "--cap", "0", "--out", str(out_dir)]) == 0
    assert "wrote 0 graphs" in capsys.readouterr().out


def test_learn_and_replay(capsys, tmp_path):
    out_dir = tmp_path / "run"
    argv = ["learn", "--target", data_path("triangle_grammar.json"),
            "--params", data_path("triangle_params.json"),
            "--cap", "4", "--stages", "3", "--out", str(out_dir)]
    assert dispatch(argv) == 0
    capsys.readouterr()
    trace = json.loads((out_dir / "trace.json").read_text())
    assert len(trace["stages"]) == 3
    assert trace["convergence"]["stable_from"] is not None
    assert (out_dir / "stage_001.json").exists()
    # identical rerun produces byte-identical outputs
    out2 = tmp_path / "run2"
    argv2 = argv[:-1] + [str(out2)]
    assert dispatch(argv2) == 0
    capsys.readouterr()
    t1 = (out_dir / "trace.json").read_text().replace(str(out_dir), "OUT")
    t2 = (out2 / "trace.json").read_text().replace(str(out2), "OUT")
    assert t1 == t2
    assert (out_dir / "stage_003.json").read_bytes() == \
        (out2 / "stage_003.json").read_bytes()
    # replay verifies the recorded trace
    assert dispatch(["learn", "--replay", str(out_dir / "trace.json")]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_learn_writes_a_kept_hypothesis_once(capsys, tmp_path, monkeypatch):
    # twin at cap 3, seed 2: stages 3-6 keep the hypothesis of stage 2
    dumped, runs = [], []
    dump = cli_mod.dump_grammar
    run_learn = cli_mod._run_learn
    monkeypatch.setattr(cli_mod, "dump_grammar",
                        lambda gamma, path: (dumped.append(path), dump(gamma, path)))
    monkeypatch.setattr(cli_mod, "_run_learn",
                        lambda config: runs.append(run_learn(config)) or runs[-1])
    out_dir = tmp_path / "run"
    assert dispatch(["learn", "--target", data_path("twin_grammar.json"),
                     "--params", data_path("twin_params.json"), "--cap", "3",
                     "--stages", "6", "--seed", "2", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    stages = runs[0]["stages"]
    assert [rec.hypothesis is stages[i - 1].hypothesis
            for i, rec in enumerate(stages) if i] == [False, True, True, True, True]
    assert [p.name for p in dumped] == ["stage_001.json", "stage_002.json"]
    fresh = {}  # one fresh dump per distinct hypothesis object
    for rec in stages:
        name = f"stage_{rec.stage:03d}.json"
        if id(rec.hypothesis) not in fresh:
            dump(rec.hypothesis, tmp_path / name)
            fresh[id(rec.hypothesis)] = (tmp_path / name).read_bytes()
        assert (out_dir / name).read_bytes() == fresh[id(rec.hypothesis)]
    trace = json.loads((out_dir / "trace.json").read_text())
    assert [s["hypothesis_file"] for s in trace["stages"]] == \
        [f"stage_{i:03d}.json" for i in range(1, 7)]


# sha256 of every file a seeded ``learn`` run writes, with the input paths
# in trace.json masked; pins clause order, variable names and vertex ids
# in the stage files, which counters and digests do not see
_TWIN_STAGE_1 = "e93fec191d5b3b6afa8c650dcf537cf72fccc744d355821607225cf3120af7ad"
_TWIN_STAGE_2 = "d673a5e6a7e5fe97b3fe2ff8da8a3dbd7c1e4cb0e9e2cc33f57de8448bdce713"
_PATH_STAGE = "9e31af48ab8f8c4e580a6892fd11c1aa654de3b2893a1e94ad3e32026debc423"


@pytest.mark.parametrize("name, cap, stages, stage_files, trace", [
    ("twin", 3, 6, [_TWIN_STAGE_1] + [_TWIN_STAGE_2] * 5,
     "785bd698c256acc5449f58cbcfa3c3dc932b824a9962eb7cf843724c1ff6eabc"),
    ("path", 5, 8, [_PATH_STAGE] * 8,
     "2afeb5e45707e37945dc93dc692ab7309ed79c0b5f07676bc6d79e595bf10c41"),
], ids=["twin", "path"])
def test_learn_outputs_are_pinned(capsys, tmp_path, name, cap, stages,
                                  stage_files, trace):
    target = data_path(f"{name}_grammar.json")
    params = data_path(f"{name}_params.json")
    out_dir = tmp_path / "run"
    assert dispatch(["learn", "--target", target, "--params", params,
                     "--cap", str(cap), "--stages", str(stages), "--seed", "2",
                     "--out", str(out_dir)]) == 0
    capsys.readouterr()
    written = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    masked = written.pop("trace.json")
    masked = masked.replace(json.dumps(target).encode(), b'"TARGET"')
    masked = masked.replace(json.dumps(params).encode(), b'"PARAMS"')
    assert hashlib.sha256(masked).hexdigest() == trace
    assert {f: hashlib.sha256(data).hexdigest() for f, data in written.items()} == \
        {f"stage_{i:03d}.json": want for i, want in enumerate(stage_files, 1)}


@pytest.fixture(scope="module")
def triangle_trace(tmp_path_factory):
    """The trace of a two-stage triangle run at cap 4, checked at cap 4."""
    run_dir = tmp_path_factory.mktemp("triangle")
    out_dir = run_dir / "run"
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps({
        "target": data_path("triangle_grammar.json"),
        "params": data_path("triangle_params.json"),
        "size_cap": 4, "stages": 2, "check_cap": 4, "out": str(out_dir)}))
    assert dispatch(["learn", "--config", str(cfg)]) == 0
    return json.loads((out_dir / "trace.json").read_text())


# every recorded stage field but the hypothesis file name, which names a
# file of the original run, and the run-level facts
_STAGE_FIELDS = (
    "stage", "presented", "sample_size", "update_fired", "basis_size",
    "residual_size", "hypothesis_digest", "admission_queries",
    "admitted_clauses", "candidates", "fact_candidates", "fact_queries",
    "families", "internal_member_calls", "nonfact_candidates",
    "oracle_queries", "raw_representations", "shape_constant", "table_queries")
_TAMPERED = ([("stages", i % 2, field) for i, field in enumerate(_STAGE_FIELDS)]
             + [("convergence", "stable_from"), ("convergence", "final_digest"),
                ("teacher_queries", "total"), ("teacher_queries", "unique"),
                ("teacher_queries", "cache_verified"), ("agreement", "agree"),
                ("agreement", "differing")])


@pytest.mark.parametrize("path", _TAMPERED,
                         ids=["-".join(map(str, path)) for path in _TAMPERED])
def test_learn_replay_detects_tampering(capsys, tmp_path, triangle_trace, path):
    trace = json.loads(json.dumps(triangle_trace))
    *parents, field = path
    holder = trace
    for key in parents:
        holder = holder[key]
    recorded = holder[field]
    if isinstance(recorded, bool):
        holder[field] = not recorded
    elif isinstance(recorded, int):
        holder[field] = recorded + 12345
    else:
        holder[field] = "0" * 16
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    capsys.readouterr()
    assert dispatch(["learn", "--replay", str(trace_file)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("replay mismatch: ")
    assert lines[0].endswith(f"{field} {holder[field]!r} != {recorded!r}")


@pytest.mark.parametrize("trace, message", [
    ({}, "config: expected an object"),
    ({"config": {"target": "t.json", "size_cap": 4, "stages": 1}, "stages": []},
     "config.params: missing"),
    ([1], "trace: expected an object"),
    ({"config": {"target": "t.json", "params": "p.json", "size_cap": 4,
                 "stages": 1}, "stages": 3}, "trace.stages: expected a list"),
    ({"config": {"target": "t.json", "params": "p.json", "size_cap": 4,
                 "stages": 1}, "stages": [], "convergence": [],
      "teacher_queries": {}}, "trace.convergence: expected an object"),
    ({"config": {"target": "t.json", "params": "p.json", "size_cap": 4,
                 "stages": 1}, "stages": [], "convergence": {},
      "teacher_queries": {}, "agreement": []}, "trace.agreement: expected an object"),
])
def test_learn_replay_rejects_malformed_trace(capsys, tmp_path, trace, message):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace))
    assert dispatch(["learn", "--replay", str(trace_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_learn_config_file_with_flag_override(capsys, tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "target": data_path("triangle_grammar.json"),
        "params": data_path("triangle_params.json"),
        "size_cap": 4, "stages": 5, "check_cap": 4,
        "out": str(tmp_path / "ignored")}))
    code = dispatch(["learn", "--config", str(cfg), "--stages", "2",
                     "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    trace = json.loads((out_dir / "trace.json").read_text())
    assert len(trace["stages"]) == 2


def test_learn_config_check_cap_bound(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "target": data_path("triangle_grammar.json"),
        "params": data_path("triangle_params.json"),
        "size_cap": 4, "stages": 1, "check_cap": 9,
        "out": str(tmp_path / "o")}))
    assert dispatch(["learn", "--config", str(cfg)]) == 1
    assert "check_cap" in capsys.readouterr().err


@pytest.mark.parametrize("stages, agree", [(8, True), (1, False)])
def test_learn_check_cap_compares_languages(tmp_path, capsys, stages, agree):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "target": data_path("path_grammar.json"),
        "params": data_path("path_params.json"),
        "size_cap": 5, "stages": stages, "check_cap": 5,
        "out": str(tmp_path / "checked")}))
    assert dispatch(["learn", "--config", str(cfg)]) == 0
    capsys.readouterr()
    checked = json.loads((tmp_path / "checked" / "trace.json").read_text())
    assert checked["agreement"]["agree"] is agree
    differing = checked["agreement"]["differing"]
    assert (differing == []) is agree
    assert len(differing) <= 5
    # without a check_cap the trace has no agreement field
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "check_cap": None}))
    assert dispatch(["learn", "--config", str(cfg), "--out",
                     str(tmp_path / "unchecked")]) == 0
    capsys.readouterr()
    unchecked = json.loads((tmp_path / "unchecked" / "trace.json").read_text())
    assert "agreement" not in unchecked


@pytest.mark.parametrize("field, fields", [
    ("check_cap", {"stages": 0}),
    ("check_cap", {"check_cap": "4"}),
    ("stages", {"stages": "2"}),
    ("seed", {"seed": [1]}),
    ("target", {"target": 5}),
    ("stages", {"stages": -2}),
    ("size_cap", {"size_cap": -2, "check_cap": None}),
    ("check_cap", {"check_cap": -1}),
])
def test_learn_config_rejects_bad_fields(tmp_path, capsys, field, fields):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "target": data_path("path_grammar.json"),
        "params": data_path("path_params.json"),
        "size_cap": 4, "stages": 1, "check_cap": 4,
        "out": str(tmp_path / "o"), **fields}))
    assert dispatch(["learn", "--config", str(cfg)]) == 1
    assert f"config.{field}" in capsys.readouterr().err


def test_out_dir_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("CLAUSEGRAPH_OUT", str(target))
    code = dispatch(["generate", "--grammar", data_path("triangle_grammar.json"),
                     "--params", data_path("triangle_params.json"),
                     "--cap", "3", "--out", str(tmp_path / "flag_out")])
    assert code == 0
    assert list(target.glob("member_*.json"))


def _cli(argv, hash_seed: str, check: bool = True, **extra_env):
    """Run the command line in a fresh interpreter under ``PYTHONHASHSEED``
    and the ``extra_env`` variables."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CLAUSEGRAPH_OUT", "CLAUSEGRAPH_LOG")}
    src = str(Path(clausegraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = hash_seed
    env.update(extra_env)
    return subprocess.run([sys.executable, "-m", "clausegraph.cli", *argv],
                          env=env, capture_output=True, text=True, check=check)


def test_unknown_log_level_is_domain_error():
    """An unknown ``CLAUSEGRAPH_LOG`` level is one error line, no traceback."""
    run = _cli(["check", "--grammar", data_path("path_grammar.json"),
                "--params", data_path("path_params.json")], "0",
               check=False, CLAUSEGRAPH_LOG="bogus")
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "error: CLAUSEGRAPH_LOG: unknown level 'bogus'\n"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``learn`` writes the same trace and stage files, and ``member --tree``
    prints the same trees, whatever order sets and dicts of strings take."""
    gamma, params = twin_grammar()
    graphs = generate_language(gamma, params, 6) + [
        graph_from_parts([(0, "a"), (1, "b"), (2, "b")], [(0, 1, "e"), (1, 2, "e")])]
    graph_file = tmp_path / "graphs.json"
    dump_graphs([closed(g) for g in graphs], graph_file)
    runs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"learn_{hash_seed}"
        learned = _cli(["learn", "--target", data_path("twin_grammar.json"),
                        "--params", data_path("twin_params.json"), "--cap", "3",
                        "--stages", "6", "--seed", "2", "--out", str(out)], hash_seed)
        trees = _cli(["member", "--grammar", data_path("twin_grammar.json"),
                      "--graph", str(graph_file),
                      "--params", data_path("twin_params.json"), "--tree"], hash_seed)
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        runs.append((learned.stdout.replace(str(out), "OUT"), files, trees.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 7 and runs[0][2].count("YES") == len(graphs) - 1
