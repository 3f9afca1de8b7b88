import json
from importlib import resources
from pathlib import Path

import pytest

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
from clausegraph.graphs import closed, graph_from_parts


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


def test_bundled_data_files_match_builders():
    for name, builder in (("path", path_grammar), ("triangle", triangle_grammar),
                          ("twin", twin_grammar)):
        gamma, params = builder()
        loaded = load_grammar(data_path(f"{name}_grammar.json"))
        assert loaded.digest_key() == gamma.digest_key()


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


def test_oracle_alias(capsys, path_files):
    code = dispatch(["oracle", "--grammar", path_files["grammar"],
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_missing_flag_is_usage_error(capsys):
    assert dispatch(["member", "--graph", "x.json"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_unreadable_file_is_domain_error(capsys, path_files):
    code = dispatch(["member", "--grammar", "/nonexistent.json",
                     "--graph", path_files["graph"],
                     "--params", path_files["params"]])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["member", "member --tree", "learn"])
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


def test_learn_replay_detects_tampering(capsys, tmp_path):
    out_dir = tmp_path / "run"
    dispatch(["learn", "--target", data_path("triangle_grammar.json"),
              "--params", data_path("triangle_params.json"),
              "--cap", "4", "--stages", "2", "--out", str(out_dir)])
    capsys.readouterr()
    trace_file = out_dir / "trace.json"
    trace = json.loads(trace_file.read_text())
    trace["stages"][0]["hypothesis_digest"] = "0" * 16
    trace_file.write_text(json.dumps(trace))
    assert dispatch(["learn", "--replay", str(trace_file)]) == 1
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("trace, message", [
    ({}, "config: expected an object"),
    ({"config": {"target": "t.json", "size_cap": 4, "stages": 1}, "stages": []},
     "config.params: missing"),
    ([1], "trace: expected an object"),
    ({"config": {"target": "t.json", "params": "p.json", "size_cap": 4,
                 "stages": 1}, "stages": 3}, "trace.stages: expected a list"),
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
