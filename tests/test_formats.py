import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clausegraph

from clausegraph.clauses import ParamTuple
from clausegraph.formats import (
    dump_grammar,
    dump_graphs,
    dump_params,
    graph_from_obj,
    graph_to_obj,
    grammar_from_obj,
    grammar_to_obj,
    load_grammar,
    load_graphs,
    load_params,
    params_from_obj,
)
from clausegraph.grammars import path_grammar, triangle_grammar, twin_grammar
from clausegraph.graphs import GraphWithInterface, graph_from_parts, iso_check

from .conftest import random_interface_graph
from .oracles import brute_iso


def test_graph_round_trip_exact(rng):
    for _ in range(25):
        g = random_interface_graph(rng, rng.randint(0, 7))
        back = graph_from_obj(graph_to_obj(g))
        assert back.graph.vlabel == g.graph.vlabel
        assert back.graph.edges == g.graph.edges
        assert back.interface == g.interface


def test_graph_round_trip_through_file(tmp_path, rng):
    graphs = [random_interface_graph(rng, rng.randint(0, 6)) for _ in range(4)]
    path = tmp_path / "sample.json"
    dump_graphs(graphs, path)
    back = load_graphs(path)
    assert len(back) == 4
    for g, h in zip(graphs, back):
        assert iso_check(g, h)


def test_single_graph_file_loads_as_list(tmp_path):
    path = tmp_path / "one.json"
    dump_graphs([GraphWithInterface(graph_from_parts([(0, "a")]), ())], path)
    assert isinstance(json.loads(path.read_text()), dict)
    assert len(load_graphs(path)) == 1


def test_graphs_load_as_utf8_whatever_the_locale(tmp_path):
    """A UTF-8 graph file loads under an ASCII locale with UTF-8 mode off."""
    path = tmp_path / "alpha.json"
    path.write_bytes(json.dumps({"vertices": [{"id": 0, "label": "\u03b1"}]},
                                ensure_ascii=False).encode("utf-8"))
    src = str(Path(clausegraph.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from clausegraph.formats import load_graphs; "
            "[g] = load_graphs(sys.argv[1]); print(ascii(g.graph.vlabel[0]))")
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "'\\u03b1'\n"


def test_lossless_up_to_renaming(tmp_path):
    g = GraphWithInterface(
        graph_from_parts([(10, "a"), (20, "b")], [(10, 20, "e")]), (20,))
    path = tmp_path / "g.json"
    dump_graphs([g], path)
    renamed = GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "b")], [(0, 1, "e")]), (1,))
    assert iso_check(load_graphs(path)[0], renamed)


@pytest.mark.parametrize("mutate,field", [
    (lambda o: o["vertices"].append({"id": 0, "label": "a"}), "vertices"),
    (lambda o: o["edges"].append({"u": 0, "v": 0, "label": "e"}), "edges"),
    (lambda o: o["edges"].append({"u": 0, "v": 99, "label": "e"}), "edges"),
    (lambda o: o["interface"].extend([0, 0]), "interface"),
    (lambda o: o["vertices"].append({"id": "x", "label": "a"}), "vertices"),
])
def test_graph_validation_names_field(mutate, field):
    obj = graph_to_obj(GraphWithInterface(
        graph_from_parts([(0, "a"), (1, "a")], [(0, 1, "e")]), ()))
    mutate(obj)
    with pytest.raises(ValueError, match=field):
        graph_from_obj(obj)


def test_grammar_round_trip_preserves_structure(tmp_path):
    for builder in (path_grammar, triangle_grammar, twin_grammar):
        gamma, _ = builder()
        path = tmp_path / "g.json"
        dump_grammar(gamma, path)
        back = load_grammar(path)
        assert {(p.name, p.irank) for p in back.predicates} == \
            {(p.name, p.irank) for p in gamma.predicates}
        assert back.start == gamma.start
        assert len(back.clauses) == len(gamma.clauses)
        assert sorted(c.shape_key for c in back.clauses) == \
            sorted(c.shape_key for c in gamma.clauses)
        for cl, cl2 in zip(gamma.clauses, back.clauses):
            assert brute_iso(cl.head.pattern, cl2.head.pattern)
            assert cl.head.pattern.key == cl2.head.pattern.key


def test_grammar_dump_is_byte_stable(tmp_path):
    gamma, _ = path_grammar()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_grammar(gamma, p1)
    dump_grammar(gamma, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grammar_validation_errors():
    gamma, _ = path_grammar()
    obj = grammar_to_obj(gamma)
    obj["start"] = "nope"
    with pytest.raises(ValueError, match="start"):
        grammar_from_obj(obj)
    obj = grammar_to_obj(gamma)
    obj["clauses"][1]["body"] = []
    with pytest.raises(ValueError, match="fixed-interface"):
        grammar_from_obj(obj)
    obj = grammar_to_obj(gamma)
    obj["clauses"][0]["head"]["predicate"] = "ghost"
    with pytest.raises(ValueError, match="ghost"):
        grammar_from_obj(obj)
    obj = grammar_to_obj(gamma)
    obj["clauses"][1]["head"]["pattern"]["hyperedges"][0]["ports"] = [2, 2]
    with pytest.raises(ValueError,
                       match=r"clauses\[1\]\.head\.pattern\.hyperedges\[0\]\.ports"):
        grammar_from_obj(obj)


def test_params_round_trip(tmp_path):
    params = ParamTuple(m=3, s=1, t=1, w=2, d=2, delta=2, h_max=3)
    path = tmp_path / "params.json"
    dump_params(params, path)
    assert load_params(path) == params


def test_params_validation():
    with pytest.raises(ValueError, match="params.w"):
        params_from_obj({"m": 1, "s": 1, "t": 1, "d": 1, "delta": 1, "h_max": 1})
    with pytest.raises(ValueError, match="params.m"):
        params_from_obj({"m": "x", "s": 1, "t": 1, "w": 1, "d": 1, "delta": 1, "h_max": 1})
    with pytest.raises(ValueError, match="non-negative"):
        params_from_obj({"m": -1, "s": 1, "t": 1, "w": 1, "d": 1, "delta": 1, "h_max": 1})
    with pytest.raises(ValueError, match="params.x: unknown field"):
        params_from_obj({"m": 1, "s": 1, "t": 1, "w": 1, "d": 1, "delta": 1,
                         "h_max": 1, "x": 1})
