"""Independent brute-force reference implementations used only by the tests.

Everything here deliberately avoids the library's own search logic: the iso
oracle enumerates all vertex bijections, the boundary oracle re-derives
fragments from first principles, and the membership oracle is a memoized
top-down derivation search.  The admission and saturation references walk
one candidate and one clause at a time, where the library shares that work
across candidates and clauses with a common body, and the fragment-universe
reference builds and deduplicates one fragment per boundary specification,
where the library classes most specifications by their parts first.  The
reference teacher keys every query afresh, where the library's teacher
memoizes each distinct query graph's key.  Keeping these routes separate
from the code under test is what gives the equivalence checks their teeth.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from clausegraph.boundary import brep_for_graph
from clausegraph.graphs import (
    GraphPattern,
    GraphWithInterface,
    LabeledGraph,
    canonical_key,
    compose,
    realize,
)
from clausegraph.membership import FragmentUniverse, member
from clausegraph.teacher import Teacher


def brute_iso(a, b) -> bool:
    """Try every vertex bijection; intended for graphs with at most ~8 vertices."""
    if isinstance(a, GraphPattern):
        abase, ahyper = a.base, a.hyperedges
    else:
        abase, ahyper = a, ()
    if isinstance(b, GraphPattern):
        bbase, bhyper = b.base, b.hyperedges
    else:
        bbase, bhyper = b, ()
    ga, gb = abase.graph, bbase.graph
    if ga.n != gb.n or ga.m != gb.m or abase.rank != bbase.rank:
        return False
    if len(ahyper) != len(bhyper):
        return False
    averts = list(ga.vertices)
    for perm in permutations(gb.vertices):
        pi = dict(zip(averts, perm))
        if any(ga.vlabel[v] != gb.vlabel[pi[v]] for v in averts):
            continue
        if any(pi[abase.interface[i]] != bbase.interface[i] for i in range(abase.rank)):
            continue
        ok = True
        for (u, v), lab in ga.edges.items():
            if gb.edge_label(pi[u], pi[v]) != lab:
                ok = False
                break
        if not ok:
            continue
        # ga.m == gb.m and the map is a bijection, so edge preservation in one
        # direction plus equal counts gives both directions.
        want = sorted((h.label, tuple(pi[p] for p in h.ports)) for h in ahyper)
        have = sorted((h.label, h.ports) for h in bhyper)
        if want == have:
            return True
    return False


def naive_compose(g: GraphWithInterface, h: GraphWithInterface):
    """Vertex-identification reference for composition: build the disjoint
    union with tagged ids, then collapse interface pairs and scan for
    conflicts."""
    if g.rank != h.rank:
        return None
    tag = {}
    for v in g.graph.vertices:
        tag[("g", v)] = ("g", v)
    for v in h.graph.vertices:
        tag[("h", v)] = ("h", v)
    for i in range(g.rank):
        tag[("h", h.interface[i])] = ("g", g.interface[i])
    vlabel = {}
    for side, graph in (("g", g.graph), ("h", h.graph)):
        for v in graph.vertices:
            rep = tag[(side, v)]
            lab = graph.vlabel[v]
            if rep in vlabel and vlabel[rep] != lab:
                return None
            vlabel[rep] = lab
    edges = {}
    for side, graph in (("g", g.graph), ("h", h.graph)):
        for (u, v), lab in graph.edges.items():
            a, b = tag[(side, u)], tag[(side, v)]
            key = (a, b) if a < b else (b, a)
            if key in edges and edges[key] != lab:
                return None
            edges[key] = lab
    ids = {rep: i for i, rep in enumerate(sorted(vlabel))}
    return LabeledGraph({ids[r]: lab for r, lab in vlabel.items()},
                        {(ids[a], ids[b]): lab for (a, b), lab in edges.items()})


def naive_boundary_specs(g: LabeledGraph, w: int):
    """All (beta, boundary-edge-set) pairs of rank <= w, validity-filtered.

    Tuples come from raw permutations and edge sets from all subsets of the
    edges meeting the tuple, each candidate re-checked against the validity
    conditions from scratch.
    """
    out = []
    edges = sorted(g.edges)
    for r in range(w + 1):
        for beta in permutations(sorted(g.vertices), r):
            bset = set(beta)
            incident = [e for e in edges if e[0] in bset or e[1] in bset]
            for mask in range(1 << len(incident)):
                eb = frozenset(incident[i] for i in range(len(incident)) if mask >> i & 1)
                if _valid_spec(g, beta, eb):
                    out.append((beta, eb))
    return out


def _valid_spec(g, beta, eb) -> bool:
    if len(set(beta)) != len(beta):
        return False
    if any(v not in g.vlabel for v in beta):
        return False
    bset = set(beta)
    for e in eb:
        if e not in g.edges:
            return False
        if e[0] not in bset and e[1] not in bset:
            return False
    return True


def naive_fragment(g: LabeledGraph, beta, eb) -> GraphWithInterface:
    """Reachability-based fragment construction, written independently."""
    bset = set(beta)
    seeds = set()
    for u, v in eb:
        if u not in bset:
            seeds.add(u)
        if v not in bset:
            seeds.add(v)
    reached = set()
    stack = list(seeds)
    while stack:
        x = stack.pop()
        if x in reached:
            continue
        reached.add(x)
        for (u, v) in g.edges:
            if u == x and v not in bset and v not in reached:
                stack.append(v)
            elif v == x and u not in bset and u not in reached:
                stack.append(u)
    vk = bset | reached
    ek = dict()
    for e, lab in g.edges.items():
        if e in eb:
            ek[e] = lab
        elif e[0] in reached and e[1] in reached:
            ek[e] = lab
    return GraphWithInterface(LabeledGraph({v: g.vlabel[v] for v in vk}, ek), beta)


def sub_w_each(g: LabeledGraph, w: int) -> FragmentUniverse:
    """The fragment universe built one specification at a time: every
    boundary representation's fragment is built and added, and the universe
    deduplicates it by isomorphism."""
    universe = FragmentUniverse()
    for rep in brep_for_graph(g, w):
        universe.add(rep.fragment)
    return universe


# ---------------------------------------------------------------------------
# top-down membership oracle
# ---------------------------------------------------------------------------

class TopDownOracle:
    """Memoized goal-directed derivation search for one clause system.

    A goal ``pred(K)`` succeeds when some clause head embeds into ``K`` such
    that the leftover structure tiles into copies hanging off the hyperedge
    ports, equal labels receive isomorphic copies, and the induced subgoals
    succeed.  Memoization is sound here because every clause application
    consumes its head's ground structure, so subgoal graphs never grow; an
    outer pass repeats evaluation until the memo stabilizes, which makes
    cyclic same-size dependencies converge to the least fixpoint.
    """

    def __init__(self, gamma, delta=None):
        self.gamma = gamma
        self.delta = delta
        self.memo = _IsoTable()
        self.clauses_by_pred = {}
        for cl in gamma.clauses:
            self.clauses_by_pred.setdefault(cl.head.predicate.name, []).append(cl)

    def member(self, g: LabeledGraph) -> bool:
        if self.delta is not None and g.max_degree() > self.delta:
            return False
        goal = GraphWithInterface(g, ())
        while True:
            before = self.memo.size
            result, clean = self._solve(self.gamma.start.name, goal, ())
            if result or clean or self.memo.size == before:
                return result

    def _solve(self, pred: str, k: GraphWithInterface, in_progress):
        """Returns (derivable, clean); a non-clean False leaned on an
        in-progress goal and is not memoized.  True is always sound because
        assuming a goal False can only suppress derivations."""
        found, value = self.memo.get(pred, k)
        if found:
            return value, True
        for ppred, pk in in_progress:
            if ppred == pred and _oracle_iso(pk, k):
                return False, False
        in_progress = in_progress + ((pred, k),)
        clean_overall = True
        for cl in self.clauses_by_pred.get(pred, []):
            for theta in _clause_matches(cl, k):
                all_true = True
                for atom in cl.body:
                    sub, subclean = self._solve(
                        atom.predicate.name, theta[_atom_var(atom)], in_progress)
                    if not sub:
                        all_true = False
                        if not subclean:
                            clean_overall = False
                        break
                if all_true:
                    self.memo.set(pred, k, True)
                    return True, True
        if clean_overall:
            self.memo.set(pred, k, False)
        return False, clean_overall


def _atom_var(atom):
    return atom.pattern.hyperedges[0].label


class _IsoTable:
    """Memo keyed up to isomorphism, independent of the library's machinery:
    cheap invariant buckets refined by exhaustive backtracking search."""

    def __init__(self):
        self.buckets = {}
        self.size = 0

    @staticmethod
    def _sig(pred, g: GraphWithInterface):
        gr = g.graph
        return (
            pred,
            g.rank,
            gr.n,
            gr.m,
            tuple(sorted(gr.vlabel.values())),
            tuple(sorted(gr.edges.values())),
            tuple(sorted((gr.degree(v), gr.vlabel[v]) for v in gr.vertices)),
            g.interface_labels(),
            tuple(gr.degree(v) for v in g.interface),
        )

    def get(self, pred, g):
        for rep, value in self.buckets.get(self._sig(pred, g), ()):
            if _oracle_iso(rep, g):
                return True, value
        return False, None

    def set(self, pred, g, value):
        self.buckets.setdefault(self._sig(pred, g), []).append((g, value))
        self.size += 1


def _oracle_iso(a: GraphWithInterface, b: GraphWithInterface) -> bool:
    """Exhaustive backtracking isomorphism search (test-side implementation)."""
    ga, gb = a.graph, b.graph
    if ga.n != gb.n or ga.m != gb.m or a.rank != b.rank:
        return False
    if sorted(ga.vlabel.values()) != sorted(gb.vlabel.values()):
        return False
    pi = {}
    used = set()
    for i, v in enumerate(a.interface):
        w = b.interface[i]
        if ga.vlabel[v] != gb.vlabel[w] or w in used:
            return False
        pi[v] = w
        used.add(w)
    free = [v for v in ga.vertices if v not in pi]

    def consistent(v, w):
        if ga.vlabel[v] != gb.vlabel[w] or ga.degree(v) != gb.degree(w):
            return False
        count = 0
        for u, lab in ga.neighbors(v):
            if u in pi:
                if gb.edge_label(pi[u], w) != lab:
                    return False
                count += 1
        back = sum(1 for x, _ in gb.neighbors(w) if x in used)
        return back == count

    # interface pre-mapping: degrees and pairwise edges must already agree
    for v in a.interface:
        if ga.degree(v) != gb.degree(pi[v]):
            return False
    for i, v1 in enumerate(a.interface):
        for v2 in a.interface[i + 1:]:
            if ga.edge_label(v1, v2) != gb.edge_label(pi[v1], pi[v2]):
                return False

    def extend(i):
        if i == len(free):
            return True
        v = free[i]
        for w in gb.vertices:
            if w in used or not consistent(v, w):
                continue
            pi[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del pi[v]
            used.discard(w)
        return False

    return extend(0)


def _clause_matches(clause, k: GraphWithInterface):
    """Yield substitutions theta with Real(head, theta) isomorphic to ``k``.

    Works by embedding the head's ground part into ``k`` and tiling the
    leftover vertices onto the head's hyperedges, one connected piece at a
    time.  Each tiling is verified edge-for-edge, so no edge of ``k`` goes
    unexplained and no copy demands an edge ``k`` lacks.
    """
    head = clause.head.pattern
    base = head.base
    hg = base.graph
    kg = k.graph
    hyper = head.hyperedges
    if base.rank != k.rank:
        return
    extra = kg.n - hg.n
    if extra < 0 or (not hyper and extra != 0):
        return
    for pi in _embeddings(base, k):
        image = set(pi.values())
        leftover = [v for v in kg.vertices if v not in image]
        comps = _components(kg, leftover)
        port_images = {i: set(pi[p] for p in h.ports) for i, h in enumerate(hyper)}
        # each leftover component must attach only through one hyperedge's ports
        choices = []
        for comp in comps:
            boundary = set()
            for v in comp:
                for u, _ in kg.neighbors(v):
                    if u in image:
                        boundary.add(u)
            fits = [i for i in port_images if boundary <= port_images[i]]
            if not fits:
                choices = None
                break
            choices.append((comp, fits))
        if choices is None:
            continue
        for assignment in _assignments(choices):
            yield from _check_tiling(clause, k, pi, assignment)


def _embeddings(base: GraphWithInterface, k: GraphWithInterface):
    """Injective label/edge/interface-preserving maps of the ground part into k."""
    hg, kg = base.graph, k.graph
    hverts = [v for v in hg.vertices]
    fixed = {}
    for i, v in enumerate(base.interface):
        w = k.interface[i]
        if hg.vlabel[v] != kg.vlabel[w]:
            return
        fixed[v] = w
    if len(set(fixed.values())) != len(fixed):
        return
    free = [v for v in hverts if v not in fixed]

    def extend(i, pi, used):
        if i == len(free):
            for (u, v), lab in hg.edges.items():
                if kg.edge_label(pi[u], pi[v]) != lab:
                    return
            yield dict(pi)
            return
        v = free[i]
        for w in kg.vertices:
            if w in used or kg.vlabel[w] != hg.vlabel[v]:
                continue
            pi[v] = w
            yield from extend(i + 1, pi, used | {w})
            del pi[v]

    yield from extend(0, dict(fixed), set(fixed.values()))


def _components(g: LabeledGraph, leftover):
    left = set(leftover)
    comps = []
    seen = set()
    for v in sorted(left):
        if v in seen:
            continue
        comp = set()
        stack = [v]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            for u, _ in g.neighbors(x):
                if u in left and u not in comp:
                    stack.append(u)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _assignments(choices):
    if not choices:
        yield {}
        return
    comp, fits = choices[0]
    for rest in _assignments(choices[1:]):
        for hi in fits:
            out = dict(rest)
            out[tuple(comp)] = hi
            yield out


def _check_tiling(clause, k, pi, assignment):
    head = clause.head.pattern
    kg = k.graph
    hyper = head.hyperedges
    image_edges = set()
    hg = head.base.graph
    for (u, v), lab in hg.edges.items():
        a, b = pi[u], pi[v]
        image_edges.add((a, b) if a < b else (b, a))
    members = {i: set(pi[p] for p in h.ports) for i, h in enumerate(hyper)}
    for comp, hi in assignment.items():
        members[hi] |= set(comp)
    # Every edge of k needs at least one explanation: the head image, or any
    # copy whose vertex set contains both endpoints.  Merged edges make the
    # split ambiguous, so copies independently take or skip shared edges.
    forced = {i: {} for i in members}
    ambiguous = []
    for (u, v), lab in sorted(kg.edges.items()):
        owners = [i for i in members if u in members[i] and v in members[i]]
        in_head = (u, v) in image_edges
        if not owners:
            if not in_head:
                return
            continue
        if not in_head and len(owners) == 1:
            forced[owners[0]][(u, v)] = lab
        else:
            ambiguous.append(((u, v), lab, owners, in_head))

    for picks in _edge_choices(ambiguous):
        copy_edges = {i: dict(forced[i]) for i in members}
        for (e, lab, owners) in picks:
            for i in owners:
                copy_edges[i][e] = lab
        theta = {}
        ok = True
        for i, h in enumerate(hyper):
            vlabel = {v: kg.vlabel[v] for v in members[i]}
            binding = GraphWithInterface(
                LabeledGraph(vlabel, copy_edges[i]),
                tuple(pi[p] for p in h.ports))
            if h.label in theta:
                # equal variable labels demand isomorphic copies
                if not brute_iso(theta[h.label], binding):
                    ok = False
                    break
            else:
                theta[h.label] = binding
        if not ok:
            continue
        # body stars must apply: bound interface labels match the star's ports
        for atom in clause.body:
            var = _atom_var(atom)
            star_ports = atom.pattern.hyperedges[0].ports
            star_labels = tuple(atom.pattern.base.graph.vlabel[p] for p in star_ports)
            if theta[var].interface_labels() != star_labels:
                ok = False
                break
        if ok:
            yield theta


def _edge_choices(ambiguous):
    """All ways to hand each ambiguous edge to a subset of its owner copies;
    an edge unclaimed by the head must go to at least one copy."""
    if not ambiguous:
        yield []
        return
    (e, lab, owners, in_head) = ambiguous[0]
    subsets = []
    for mask in range(1 << len(owners)):
        chosen = [owners[i] for i in range(len(owners)) if mask >> i & 1]
        if chosen or in_head:
            subsets.append(chosen)
    for rest in _edge_choices(ambiguous[1:]):
        for chosen in subsets:
            yield [(e, lab, chosen)] + rest


# ---------------------------------------------------------------------------
# a teacher without the query-key memo
# ---------------------------------------------------------------------------

class KeyEveryQueryTeacher(Teacher):
    """A ``Teacher`` that computes every query's canonical key afresh and
    memoizes answers by key only."""

    def answer(self, g: LabeledGraph) -> bool:
        self.queries_total += 1
        key = canonical_key(GraphWithInterface(g, ()))
        if key in self.query_cache:
            return self.query_cache[key][1]
        result = member(self.target, self.target.start, g, self.params)
        self.query_cache[key] = (g, result)
        return result


# ---------------------------------------------------------------------------
# one-at-a-time admission and saturation
# ---------------------------------------------------------------------------

class AdmissionRecord(NamedTuple):
    """What the one-by-one admission reference saw for one candidate: its
    verdict, the families it walked and the set of (head, realized) queries
    it sent."""

    verdict: bool
    families: int
    queries: frozenset


def admit_each(candidates, table, oracle):
    """Admit every candidate on its own, family by family in product order,
    stopping at its first negative family.  Returns one ``AdmissionRecord``
    per candidate and the construction's totals (``fact_queries``,
    ``admission_queries`` with each (head, realized) pair asked once,
    ``families``)."""
    records = []
    asked, realized = {}, {}
    totals = {"fact_queries": 0, "admission_queries": 0, "families": 0}
    for cand in candidates:
        if not cand.body:
            composed = compose(cand.head.fragment, cand.pattern.base)
            if composed is not None:
                totals["fact_queries"] += 1
            records.append(AdmissionRecord(
                composed is not None and oracle(composed), 0, frozenset()))
            continue
        variables = sorted({var for var, _, _ in cand.body})
        per_var = []
        for var in variables:
            rows = [table.row_of.get(cls.key) for v, _, cls in cand.body if v == var]
            cols = set(range(len(table.cols)))
            for ri in rows:
                cols &= table.true_cols[ri] if ri is not None else set()
            per_var.append(sorted(cols))
        verdict, families, mine = True, 0, set()
        for family in product(*per_var):
            families += 1
            rkey = (cand.pattern.key, family)
            if rkey not in realized:
                theta = {var: table.cols[ci].fragment
                         for var, ci in zip(variables, family)}
                graph = realize(cand.pattern, theta)
                realized[rkey] = graph, None if graph is None else canonical_key(graph)
            graph, graph_key = realized[rkey]
            if graph is None:
                continue
            composed = compose(cand.head.fragment, graph)
            if composed is None:
                verdict = False
                break
            pair = (cand.head.key, graph_key)
            mine.add(pair)
            if pair not in asked:
                asked[pair] = oracle(composed)
            if not asked[pair]:
                verdict = False
                break
        totals["families"] += families
        records.append(AdmissionRecord(verdict, families, frozenset(mine)))
    totals["admission_queries"] = len(asked)
    return records, totals


def saturate_each(gamma, universe, lookup) -> dict:
    """Semi-naive least fixpoint, one clause at a time: every round visits
    every rule, rebuilds each variable's pool from the pairs derived so far
    (including those of the current round) and retries a binding only when
    one of its indices was derived in the previous round.  Returns the
    derived (predicate, universe index) pairs, each with the index of the
    clause that first derived it."""
    facts, rules = [], []
    for index, cl in enumerate(gamma.clauses):
        variables = list(cl.head.pattern.variables())
        stars = {var: [] for var in variables}
        for atom in cl.body:
            star = atom.pattern.hyperedges[0]
            stars[star.label].append((atom.pattern.base.interface_labels(),
                                      atom.predicate.name))
        rule = (index, cl.head.predicate.name, cl.head.pattern, variables, stars)
        (rules if variables else facts).append(rule)
    derived = {}
    for index, head, pattern, _, _ in facts:
        res = realize(pattern, {})
        idx = lookup(res) if res is not None else None
        if idx is not None:
            derived.setdefault((head, idx), index)
    new = set(derived)
    while new:
        frontier, new = new, set()
        for index, head, pattern, variables, stars in rules:
            pools, fresh = [], []
            for var in variables:
                wanted = {labels for labels, _ in stars[var]}
                pool = []
                if len(wanted) == 1:  # stars that disagree bind nothing
                    pool = [idx for idx in universe.by_labels.get(wanted.pop(), ())
                            if all((pred, idx) in derived for _, pred in stars[var])]
                pools.append(pool)
                fresh.append({idx for idx in pools[-1]
                              if any((pred, idx) in frontier
                                     for _, pred in stars[var])})
            for combo in product(*pools):
                if not any(idx in f for idx, f in zip(combo, fresh)):
                    continue
                theta = {var: universe[i] for var, i in zip(variables, combo)}
                res = realize(pattern, theta)
                idx = lookup(res) if res is not None else None
                if idx is not None and (head, idx) not in derived:
                    derived[(head, idx)] = index
                    new.add((head, idx))
    return derived
