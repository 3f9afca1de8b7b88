"""JSON file formats for graphs, grammars, and run parameters.

Graphs: ``{"vertices": [{"id", "label"}], "edges": [{"u", "v", "label"}],
"interface": [ids]}``; a graph file holds one such object or a non-empty list
of them.  Patterns extend graphs with ``"hyperedges": [{"variable", "rank",
"ports"}]``.  Grammars name their predicates, clauses, and start symbol.
Loading validates shapes eagerly and raises ``ValueError`` naming the
offending field; dumping is byte-stable for equal inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .clauses import Atom, Clause, ClauseSystem, ParamTuple, PredicateSymbol
from .graphs import (
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    VariableHyperedge,
)

PathLike = Union[str, Path]


def read_json(path: PathLike):
    """The JSON value in a UTF-8 file.  Text that does not decode or parse,
    or nests too deeply, is a ``ValueError`` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise ValueError(f"{field}: {message}")


def _as_int(value, field: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), field,
            f"expected an integer, got {value!r}")
    return value


def _as_str(value, field: str) -> str:
    _expect(isinstance(value, str), field, f"expected a string, got {value!r}")
    return value


def _as_list(value, field: str) -> list:
    _expect(isinstance(value, list), field, f"expected a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def graph_to_obj(g: GraphWithInterface) -> dict:
    graph = g.graph
    return {
        "vertices": [{"id": v, "label": graph.vlabel[v]} for v in graph.vertices],
        "edges": [{"u": u, "v": v, "label": lab}
                  for (u, v), lab in sorted(graph.edges.items())],
        "interface": list(g.interface),
    }


def graph_from_obj(obj, field: str = "graph") -> GraphWithInterface:
    _expect(isinstance(obj, dict), field, "expected an object")
    _expect("vertices" in obj, f"{field}.vertices", "missing")
    vlabel = {}
    for i, vo in enumerate(_as_list(obj["vertices"], f"{field}.vertices")):
        _expect(isinstance(vo, dict), f"{field}.vertices[{i}]", "expected an object")
        vid = _as_int(vo.get("id"), f"{field}.vertices[{i}].id")
        lab = _as_str(vo.get("label"), f"{field}.vertices[{i}].label")
        _expect(vid not in vlabel, f"{field}.vertices[{i}].id", f"duplicate id {vid}")
        vlabel[vid] = lab
    edges = {}
    for i, eo in enumerate(_as_list(obj.get("edges", []), f"{field}.edges")):
        _expect(isinstance(eo, dict), f"{field}.edges[{i}]", "expected an object")
        u = _as_int(eo.get("u"), f"{field}.edges[{i}].u")
        v = _as_int(eo.get("v"), f"{field}.edges[{i}].v")
        lab = _as_str(eo.get("label"), f"{field}.edges[{i}].label")
        _expect(u != v, f"{field}.edges[{i}]", "self-loop")
        _expect(u in vlabel and v in vlabel, f"{field}.edges[{i}]",
                f"endpoint not declared: ({u},{v})")
        key = (u, v) if u < v else (v, u)
        _expect(key not in edges or edges[key] == lab, f"{field}.edges[{i}]",
                "conflicting duplicate edge")
        edges[key] = lab
    iface = _as_list(obj.get("interface", []), f"{field}.interface")
    for i, v in enumerate(iface):
        _as_int(v, f"{field}.interface[{i}]")
        _expect(v in vlabel, f"{field}.interface[{i}]", f"vertex {v} not declared")
    _expect(len(set(iface)) == len(iface), f"{field}.interface", "vertices must be distinct")
    return GraphWithInterface(LabeledGraph(vlabel, edges), tuple(iface))


def load_graphs(path: PathLike) -> list:
    """One graph object or a non-empty list of them, returned as a list."""
    data = read_json(path)
    if isinstance(data, dict):
        return [graph_from_obj(data)]
    _expect(isinstance(data, list), str(path), "expected a graph object or a list of them")
    _expect(bool(data), str(path), "expected at least one graph, got an empty list")
    return [graph_from_obj(obj, field=f"[{i}]") for i, obj in enumerate(data)]


def dump_graphs(graphs, path: PathLike):
    objs = [graph_to_obj(g) for g in graphs]
    payload = objs[0] if len(objs) == 1 else objs
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# patterns and grammars
# ---------------------------------------------------------------------------

def pattern_to_obj(p: GraphPattern) -> dict:
    obj = graph_to_obj(p.base)
    obj["hyperedges"] = [{"variable": h.label, "rank": h.rank, "ports": list(h.ports)}
                         for h in p.hyperedges]
    return obj


def pattern_from_obj(obj, field: str = "pattern") -> GraphPattern:
    base = graph_from_obj(obj, field=field)
    hyper = []
    for i, ho in enumerate(_as_list(obj.get("hyperedges", []), f"{field}.hyperedges")):
        _expect(isinstance(ho, dict), f"{field}.hyperedges[{i}]", "expected an object")
        var = _as_str(ho.get("variable"), f"{field}.hyperedges[{i}].variable")
        rank = _as_int(ho.get("rank"), f"{field}.hyperedges[{i}].rank")
        ports = _as_list(ho.get("ports", []), f"{field}.hyperedges[{i}].ports")
        _expect(len(ports) == rank, f"{field}.hyperedges[{i}].rank",
                f"rank {rank} != ports length {len(ports)}")
        for j, port in enumerate(ports):
            _as_int(port, f"{field}.hyperedges[{i}].ports[{j}]")
            _expect(port in base.graph.vlabel, f"{field}.hyperedges[{i}].ports[{j}]",
                    f"vertex {port} not declared")
        _expect(len(set(ports)) == len(ports), f"{field}.hyperedges[{i}].ports",
                f"must be distinct, got {ports}")
        hyper.append(VariableHyperedge(var, tuple(ports)))
    try:
        return GraphPattern(base, hyper)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def grammar_to_obj(gamma: ClauseSystem) -> dict:
    return {
        "start": gamma.start.name,
        "predicates": [{"name": p.name, "irank": p.irank} for p in gamma.predicates],
        "clauses": [
            {
                "head": {"predicate": cl.head.predicate.name,
                         "pattern": pattern_to_obj(cl.head.pattern)},
                "body": [{"predicate": a.predicate.name,
                          "pattern": pattern_to_obj(a.pattern)}
                         for a in cl.body],
            }
            for cl in gamma.clauses
        ],
    }


def grammar_from_obj(obj) -> ClauseSystem:
    _expect(isinstance(obj, dict), "grammar", "expected an object")
    preds = {}
    for i, po in enumerate(_as_list(obj.get("predicates", []), "predicates")):
        _expect(isinstance(po, dict), f"predicates[{i}]", "expected an object")
        name = _as_str(po.get("name"), f"predicates[{i}].name")
        irank = _as_int(po.get("irank"), f"predicates[{i}].irank")
        _expect(name not in preds, f"predicates[{i}].name", f"duplicate predicate {name!r}")
        preds[name] = PredicateSymbol(name, irank)
    start_name = _as_str(obj.get("start"), "start")
    _expect(start_name in preds, "start", f"start predicate {start_name!r} not declared")

    def atom_from(ao, field):
        _expect(isinstance(ao, dict), field, "expected an object")
        pname = _as_str(ao.get("predicate"), f"{field}.predicate")
        _expect(pname in preds, f"{field}.predicate", f"predicate {pname!r} not declared")
        pattern = pattern_from_obj(ao.get("pattern"), field=f"{field}.pattern")
        try:
            return Atom(preds[pname], pattern)
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from exc

    clauses = []
    for i, co in enumerate(_as_list(obj.get("clauses", []), "clauses")):
        _expect(isinstance(co, dict), f"clauses[{i}]", "expected an object")
        head = atom_from(co.get("head"), f"clauses[{i}].head")
        body = [atom_from(ao, f"clauses[{i}].body[{j}]")
                for j, ao in enumerate(_as_list(co.get("body", []),
                                                f"clauses[{i}].body"))]
        clauses.append(Clause(head, body))
    try:
        return ClauseSystem(preds.values(), clauses, start=preds[start_name])
    except ValueError as exc:
        raise ValueError(f"grammar: {exc}") from exc


def load_grammar(path: PathLike) -> ClauseSystem:
    return grammar_from_obj(read_json(path))


def dump_grammar(gamma: ClauseSystem, path: PathLike):
    Path(path).write_text(
        json.dumps(grammar_to_obj(gamma), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def params_from_obj(obj) -> ParamTuple:
    _expect(isinstance(obj, dict), "params", "expected an object")
    for f in obj:
        _expect(f in ParamTuple._fields, f"params.{f}", "unknown field")
    values = {}
    for f in ParamTuple._fields:
        _expect(f in obj, f"params.{f}", "missing")
        values[f] = _as_int(obj[f], f"params.{f}")
    try:
        return ParamTuple(**values)
    except ValueError as exc:
        raise ValueError(f"params: {exc}") from exc


def load_params(path: PathLike) -> ParamTuple:
    return params_from_obj(read_json(path))


def dump_params(params: ParamTuple, path: PathLike):
    Path(path).write_text(json.dumps(params._asdict(), indent=2, sort_keys=True) + "\n")
