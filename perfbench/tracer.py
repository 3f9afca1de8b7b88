"""Per-layer tracing from outside the library.

The tracer replaces public functions of the ``clausegraph`` modules with
wrappers that record one span per call.  A function imported by name into
several modules is replaced in every module that holds it, so calls through
any of those names are counted.  Spans are aggregated in memory per function
and per (parent, child) pair; a function's self time is its span's duration
minus the time of the spans it opened.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path): every public function of the
# library's layers that the benchmark reports on
TRACED = (
    ("formats.load_grammar", "formats", "load_grammar"),
    ("formats.load_params", "formats", "load_params"),
    ("graphs.canonical_key", "graphs", "canonical_key"),
    ("graphs.iso_check", "graphs", "iso_check"),
    ("graphs.invariant_signature", "graphs", "invariant_signature"),
    ("graphs.realize", "graphs", "realize"),
    ("graphs.compose", "graphs", "compose"),
    ("graphs.star_pattern", "graphs", "star_pattern"),
    ("boundary.brep_for_graph", "boundary", "brep_for_graph"),
    ("boundary.enumerate_brep", "boundary", "enumerate_brep"),
    ("membership.member", "membership", "member"),
    ("membership.derive_fixpoint", "membership", "derive_fixpoint"),
    ("membership.sub_w", "membership", "sub_w"),
    ("membership.FragmentUniverse.find", "membership", "FragmentUniverse.find"),
    ("clauses.ClauseSystem", "clauses", "ClauseSystem.__init__"),
    ("teacher.generate_language", "teacher", "generate_language"),
    ("teacher.answer", "teacher", "Teacher.answer"),
    ("learner.observe", "learner", "Learner.observe"),
    ("learner.collapse_reps", "learner", "collapse_reps"),
    ("learner.ObservationTable", "learner", "ObservationTable.__init__"),
    ("learner.enumerate_candidates", "learner", "enumerate_candidates"),
    ("learner.admit_clause", "learner", "admit_clause"),
    ("learner.to_clause", "learner", "ClauseCandidate.to_clause"),
    ("learner.construct_gamma", "learner", "construct_gamma"),
    ("learner.gamma_digest", "learner", "gamma_digest"),
)
# the learner's own membership calls (its coverage check), told apart from
# the teacher's by wrapping the name ``member`` inside ``learner`` once more
COVERAGE = "learner.coverage"
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (COVERAGE,)


class Tracer:
    """Span recorder.  ``stats[name]`` is ``[calls, total_s, self_s]`` and
    ``edges[(parent, child)]`` is ``[calls, total_s]``, with parent ``None``
    for root spans."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.edges: dict = {}
        self.counts: dict = {}
        self.root_s = 0.0
        self._stack: list = []

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack
        rec = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]  # time spent in child spans, span name
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                else:
                    self.root_s += elapsed
                    parent = None
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


def _after_find(tracer, args, result):
    tracer.count("find.hits", result is not None)


def _after_sub_w(tracer, args, result):
    tracer.count("universe_fragments", len(result))


def _after_fixpoint(tracer, args, result):
    tracer.count("fixpoint_rounds", result.rounds)


def _after_admit(tracer, args, result):
    tracer.count("admit.admitted", bool(result))


def _after_system(tracer, args, result):
    system, offered = args[0], args[2]
    tracer.count("system.kept", len(system.clauses))
    tracer.count("system.offered", len(offered))


def _after_brep(tracer, args, result):
    tracer.count("boundary.reps", len(result))


HOOKS = {
    "membership.FragmentUniverse.find": _after_find,
    "membership.sub_w": _after_sub_w,
    "membership.derive_fixpoint": _after_fixpoint,
    "learner.admit_clause": _after_admit,
    "clauses.ClauseSystem": _after_system,
    "boundary.brep_for_graph": _after_brep,
}


def install(tracer: Tracer):
    """Wrap every traced function in every loaded ``clausegraph`` module."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "clausegraph" or name.startswith("clausegraph.")]
    for name, module_name, attr in TRACED:
        module = sys.modules[f"clausegraph.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), HOOKS.get(name)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    learner = sys.modules["clausegraph.learner"]
    learner.member = tracer.wrap(COVERAGE, learner.member)
