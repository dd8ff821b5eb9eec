"""Shared golden instances for the test suite.

Two scenarios recur everywhere.  The roster scenario: two sources report
which courses Bob takes, one source denying CS102 outright; integration
pins Bob to CS101.  The weighted scenario: the same student seen by two
offices with exact rational uncertainty; integration yields six worlds
whose probabilities are known in closed form.
"""

import itertools
import random
import sys
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from reach import tracing
from udbi import logic
from udbi.decompose import Parts, partition
from udbi.errors import ExpansionTooLarge, MissingVarProb, NoValidAssignment, NotIntegrated
from udbi.logic import (
    DEFAULT_VAR_CAP,
    FALSE,
    Binary,
    Const,
    Not,
    Or,
    Variable,
    evaluate,
    iter_vars,
    parse_formula,
    to_text,
)
from udbi.gen import _rng, gen_consistent_pw_pair, gen_formula, gen_pr_pair, gen_prob_vector
from udbi.prdb import EprRelation, PrRelation, PrTuple, encode_pw, integrate_pr
from udbi.pwdb import UncertainDB, format_tuple, world_key

CS100 = ("Bob", "CS100")
CS101 = ("Bob", "CS101")
CS102 = ("Bob", "CS102")
CS201 = ("Bob", "CS201")
CS202 = ("Bob", "CS202")


def world(*tuples) -> frozenset:
    return frozenset(tuples)


# --- roster scenario (no probabilities) ------------------------------------------

def roster_pw_sources(denial: bool = True) -> tuple[UncertainDB, UncertainDB]:
    """Bob takes exactly one of CS100/CS101 (source 1) and one of CS101/CS102
    (source 2).  With ``denial`` source 1 also knows CS102 and rules it out."""
    t1 = [CS100, CS101] + ([CS102] if denial else [])
    s1 = UncertainDB.of(t1, [world(CS100), world(CS101)])
    s2 = UncertainDB.of([CS101, CS102], [world(CS101), world(CS102)])
    return s1, s2


def roster_pr_sources(denial: bool = True) -> tuple[PrRelation, PrRelation]:
    """The same two sources written as pr-relations over variables x and y."""
    x, y = Variable("x"), Variable("y")
    rows1 = [PrTuple(CS100, x), PrTuple(CS101, Not(x))]
    if denial:
        rows1.append(PrTuple(CS102, FALSE))
    rows2 = [PrTuple(CS101, y), PrTuple(CS102, Not(y))]
    return PrRelation.of(rows1), PrRelation.of(rows2)


# --- weighted scenario (exact rational probabilities) ------------------------------

def office_pw_sources() -> tuple[UncertainDB, UncertainDB]:
    """Two offices' weighted views of Bob's registrations."""
    s1 = UncertainDB.of(
        [CS100, CS101],
        [world(CS100), world(CS100, CS101), world(CS101)],
        ["3/10", "1/2", "1/5"],
    )
    s2 = UncertainDB.of(
        [CS100, CS201, CS202],
        [world(CS100), world(CS100, CS201), world(CS201), world(CS201, CS202)],
        ["7/20", "9/20", "1/20", "3/20"],
    )
    return s1, s2


def office_pr_sources() -> tuple[PrRelation, PrRelation]:
    """The same two offices as pr-relations; expanding them gives the pw sources."""
    r1 = PrRelation.of(
        [
            (CS100, parse_formula("!c1")),
            (CS101, parse_formula("c1 | c2")),
        ],
        {"c1": "1/5", "c2": "5/8"},
    )
    r2 = PrRelation.of(
        [
            (CS100, parse_formula("b1 | b2")),
            (CS201, parse_formula("!b1")),
            (CS202, parse_formula("!b1 & !b2 & !b3")),
        ],
        {"b1": "7/20", "b2": "9/13", "b3": "1/4"},
    )
    return r1, r2


def office_epr() -> EprRelation:
    """integrate_pr of the two offices, written out explicitly."""
    return EprRelation.of(
        [
            (CS100, parse_formula("b1 | b2")),
            (CS101, parse_formula("c1 | c2")),
            (CS201, parse_formula("!b1")),
            (CS202, parse_formula("!b1 & !b2 & !b3")),
        ],
        [(parse_formula("!c1"), parse_formula("b1 | b2"))],
        {"b1": "7/20", "b2": "9/13", "b3": "1/4", "c1": "1/5", "c2": "5/8"},
    )


OFFICE_DISTRIBUTION = {
    world(CS100): Fraction(21, 160),
    world(CS100, CS201): Fraction(27, 160),
    world(CS100, CS101): Fraction(35, 160),
    world(CS100, CS101, CS201): Fraction(45, 160),
    world(CS101, CS201): Fraction(1, 20),
    world(CS101, CS201, CS202): Fraction(3, 20),
}


# --- a minimal relation with a free variable group ---------------------------------

def free_group_epr(var_probs=None) -> EprRelation:
    """Three rows, one constraint a = c, and a free group {b}.

    Decomposes two ways: the b-row can sit on either side.  Any var_probs
    with P(a) = P(c) keeps the integration balanced.
    """
    a, b, c, d = (Variable(n) for n in "abcd")
    return EprRelation.of(
        [
            (("t1",), a),
            (("t2",), b),
            (("t3",), Or(Not(c), d)),
        ],
        [(a, c)],
        var_probs,
    )


FREE_GROUP_PROBS = {"a": "1/3", "b": "2/5", "c": "1/3", "d": "1/2"}


# --- pairwise oracle for the compatibility graph -----------------------------------

def compatible(d_i, d_j, t1, t2) -> bool:
    """True when the worlds agree on membership of every tuple in both tuple sets.

    The pairwise definition of compatibility.
    """
    for t in frozenset(t1) & frozenset(t2):
        if (t in d_i) != (t in d_j):
            return False
    return True


def pairwise_graph(s1: UncertainDB, s2: UncertainDB):
    """(components, edges) of the compatibility graph, from the definition.

    Tests every |W1| * |W2| pair with compatible() and finds the connected
    components by breadth-first search, so nothing here relies on
    compatibility being an equivalence.  Components are sorted as
    compatibility_graph sorts them.
    """
    edges = frozenset(
        (i, j)
        for i, d_i in enumerate(s1.worlds)
        for j, d_j in enumerate(s2.worlds)
        if compatible(d_i, d_j, s1.tuple_set, s2.tuple_set)
    )
    neighbours = {(0, i): [] for i in range(len(s1.worlds))}
    neighbours.update({(1, j): [] for j in range(len(s2.worlds))})
    for i, j in edges:
        neighbours[(0, i)].append((1, j))
        neighbours[(1, j)].append((0, i))
    seen = set()
    components = []
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        sides = ([], [])
        while queue:
            node = queue.popleft()
            sides[node[0]].append(node[1])
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append((tuple(sorted(sides[0])), tuple(sorted(sides[1]))))
    return tuple(sorted(components)), edges


def fraction_integrate_pw_prob(s1: UncertainDB, s2: UncertainDB) -> UncertainDB:
    """integrate_pw_prob of two balanced sources, one Fraction operation per step.

    Each compatible pair of pairwise_graph's components adds
    P(D_i) / P * P(D'_j) to its union world, P being the component's
    Fraction sum on the left; the result is sorted as integrate_pw_prob
    sorts it.
    """
    components, _ = pairwise_graph(s1, s2)
    merged: dict = {}
    for left, right in components:
        constant = sum((s1.probs[i] for i in left), Fraction(0))
        for i in left:
            share = s1.probs[i] / constant
            for j in right:
                union = s1.worlds[i] | s2.worlds[j]
                merged[union] = merged.get(union, 0) + share * s2.probs[j]
    worlds = tuple(sorted(merged, key=world_key))
    return UncertainDB(
        s1.tuple_set | s2.tuple_set, worlds, tuple(merged[w] for w in worlds)
    )


# --- brute-force oracles for expansion and equivalence ------------------------------

def _assignment_mass(names, mu, var_probs) -> Fraction:
    mass = Fraction(1)
    for name in names:
        p = var_probs[name]
        mass *= p if mu[name] else 1 - p
    return mass


def brute_expand_pr(r: PrRelation, cap: int = DEFAULT_VAR_CAP):
    """expand_pr by enumerating all 2^n assignments, with the same checks.

    Each assignment's mass is the product over variables of P(a) or
    1 - P(a); assignments yielding the same world accumulate.
    """
    names = r.variables()
    have = set() if r.var_probs is None else set(r.var_probs)
    missing = set(names) - have
    if missing:
        raise MissingVarProb(missing)
    if len(names) > cap:
        raise ExpansionTooLarge(len(names), cap)
    acc: dict = {}
    for values in itertools.product((False, True), repeat=len(names)):
        mu = dict(zip(names, values))
        world = frozenset(row.tuple for row in r.rows if evaluate(row.event, mu))
        mass = _assignment_mass(names, mu, r.var_probs or {})
        key = world_key(world)
        if key in acc:
            acc[key] = (world, acc[key][1] + mass)
        else:
            acc[key] = (world, mass)
    ordered = [acc[key] for key in sorted(acc)]
    udb = UncertainDB(
        frozenset(row.tuple for row in r.rows),
        tuple(w for w, _ in ordered),
        tuple(p for _, p in ordered),
    )
    return udb, tuple(ordered)


def brute_expand_epr(q: EprRelation, cap: int = DEFAULT_VAR_CAP) -> UncertainDB:
    """expand_epr by enumerating all 2^n assignments, with the same checks:
    the worlds of the assignments that satisfy every constraint, over q's
    tuples and in canonical order."""
    names = q.variables()
    if len(names) > cap:
        raise ExpansionTooLarge(len(names), cap)
    found: dict = {}
    for values in itertools.product((False, True), repeat=len(names)):
        mu = dict(zip(names, values))
        if not all(evaluate(lhs, mu) == evaluate(rhs, mu) for lhs, rhs in q.constraints):
            continue
        world = frozenset(row.tuple for row in q.rows if evaluate(row.event, mu))
        found.setdefault(world_key(world), world)
    if not found:
        raise NoValidAssignment()
    return UncertainDB(q.tuples(), tuple(found[key] for key in sorted(found)))


def brute_equivalent(f, g, cap: int = DEFAULT_VAR_CAP) -> bool:
    """equivalent by checking all assignments over the joint variables."""
    names = sorted(set(iter_vars(f)) | set(iter_vars(g)))
    if len(names) > cap:
        raise ExpansionTooLarge(len(names), cap)
    for values in itertools.product((False, True), repeat=len(names)):
        mu = dict(zip(names, values))
        if evaluate(f, mu) != evaluate(g, mu):
            return False
    return True


def tree_restrict(f, name: str, value: bool):
    """restrict without a memo: each occurrence of a shared node is restricted
    again and gives a node of its own.  Folds constants with logic's _fold."""
    if isinstance(f, Variable):
        return Const(value) if f.name == name else f
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        child = tree_restrict(f.child, name, value)
        return Const(not child.value) if isinstance(child, Const) else Not(child)
    left = tree_restrict(f.left, name, value)
    right = tree_restrict(f.right, name, value)
    if isinstance(left, Const) or isinstance(right, Const):
        return logic._fold(type(f), left, right)
    return type(f)(left, right)


def outcome(fn, *args, **kwargs):
    """fn's result, or its exception's type and text, for exact comparison."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def variable_nodes(f):
    """The Variable nodes of f, repeats included, in pre-order."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Variable):
            yield f
        elif isinstance(f, Not):
            stack.append(f.child)
        elif isinstance(f, Binary):
            stack += f.right, f.left


def row_text(row: PrTuple) -> str:
    """A row as ``(t)@event``."""
    return f"{format_tuple(row.tuple)}@{to_text(row.event)}"


# --- seeded generators for library tests --------------------------------------------

def gen_pw_db(seed, max_tuples: int = 4, max_worlds: int = 6, base: str = "t") -> UncertainDB:
    """A random probabilistic uncertain database with exact probabilities."""
    rng = _rng(seed)
    n_tuples = rng.randint(1, max_tuples)
    tuples = [(f"{base}{i}",) for i in range(n_tuples)]
    subsets = [
        frozenset(itertools.compress(tuples, bits))
        for bits in itertools.product((0, 1), repeat=n_tuples)
    ]
    n_worlds = rng.randint(1, min(max_worlds, len(subsets)))
    worlds = rng.sample(subsets, n_worlds)
    worlds.sort(key=world_key)
    return UncertainDB(
        frozenset(tuples), tuple(worlds), tuple(gen_prob_vector(rng, n_worlds))
    )


def gen_integrated_epr(seed, blocks: int | None = None) -> EprRelation:
    """A random epr-relation in the image of integration, with consistent probs.

    Both sources come from one hidden joint and are chain-encoded; about
    half the instances also get an independent extra block on the left
    source, whose variables end up as a free group in decomposition, and
    ``blocks``, when given, adds exactly that many (a block of one world
    has no variable, so it adds no group).
    Instances where two rows happen to carry structurally equal formulas are
    regenerated, since recognition requires constraints to match uniquely.
    """
    for attempt in itertools.count():
        rng = random.Random(f"{seed}:{attempt}")
        left_db, right_db = gen_consistent_pw_pair(rng)
        left = encode_pw(left_db, "a")
        right = encode_pw(right_db, "b")
        count = (rng.random() < 0.5) if blocks is None else blocks
        for base, var_base in list(zip("xyzw", "efgh"))[:count]:
            extra = encode_pw(gen_pw_db(rng, max_tuples=2, max_worlds=3, base=base), var_base)
            left = PrRelation.of(
                left.rows + extra.rows,
                {**(left.var_probs or {}), **(extra.var_probs or {})},
            )
        q = integrate_pr(left, right)
        try:
            partition(q)
        except NotIntegrated:
            continue
        return q


def forced_sides(parts: Parts) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The sorted variables that constraints force onto the V and W sides:
    the names of the two cores, since every constraint side ends up as a
    row of one core."""
    return tuple(sorted(parts.v.names)), tuple(sorted(parts.w.names))


def structural_condition3(q: EprRelation) -> list[tuple[int, bool]] | None:
    """decompose._condition3 by structural equality: the rows indexed by
    their formula trees as dict keys, and constraint sides compared by ==.
    The oracle for matching by text."""
    if not q.constraints:
        return []
    index: dict = {}
    for k, row in enumerate(q.rows):
        index.setdefault(row.event, []).append(k)
    matches = []
    for lhs, rhs in q.constraints:
        on_lhs = index.get(lhs, ())
        on_rhs = index.get(rhs, ()) if rhs != lhs else ()
        if len(on_lhs) + len(on_rhs) != 1:
            return None
        matches.append((on_lhs[0], True) if on_lhs else (on_rhs[0], False))
    return matches


def _variable_groups(formula_vars) -> list[tuple[str, ...]]:
    """Groups of variables co-occurring in some formula, each sorted, in
    order of first use: the connected components of the formula-variable
    incidence, one walk each from the first formula with variables that no
    earlier walk reached."""
    formula_vars = list(formula_vars)
    uses: dict[str, list[int]] = {}
    for k, used in enumerate(formula_vars):
        for name in used:
            uses.setdefault(name, []).append(k)
    reached = [False] * len(formula_vars)
    grouped: set[str] = set()
    groups = []
    for start, used in enumerate(formula_vars):
        if reached[start] or not used:
            continue
        reached[start] = True
        stack, members = [start], []
        while stack:
            for name in formula_vars[stack.pop()]:
                if name not in grouped:
                    grouped.add(name)
                    members.append(name)
                    for k in uses[name]:
                        if not reached[k]:
                            reached[k] = True
                            stack.append(k)
        groups.append(tuple(sorted(members)))
    return groups


def reference_slots(q: EprRelation) -> dict[str, int]:
    """Each variable's slot as a name-level recognizer assigns it: 0 and 1
    for the V and W cores, 2 + 2i for free group i.

    Groups of variables, indexed by name, are 2-coloured over the
    constraints in group order; then condition 3 is checked by structural
    equality and each row may be matched once.  Raises NotIntegrated with
    partition's message at the first fault, in partition's order.  The
    oracle for partition's grouping of formulas."""
    row_vars = [frozenset(iter_vars(row.event)) for row in q.rows]
    constraint_vars = [
        (frozenset(iter_vars(lhs)), frozenset(iter_vars(rhs))) for lhs, rhs in q.constraints
    ]
    groups = _variable_groups(itertools.chain(row_vars, *constraint_vars))
    index = {name: k for k, group in enumerate(groups) for name in group}
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(groups))}
    for lv, rv in constraint_vars:
        if not lv or not rv:
            continue
        a, b = index[next(iter(lv))], index[next(iter(rv))]
        if a == b:
            raise NotIntegrated(f"constraint links variable group {{{', '.join(groups[a])}}} to itself")
        adjacency[a].add(b)
        adjacency[b].add(a)
    slots: dict[int, int] = {}
    for seed in range(len(groups)):
        if seed in slots or not adjacency[seed]:
            continue
        slots[seed] = 0
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            want = slots[node] ^ 1
            for nxt in sorted(adjacency[node]):
                if nxt not in slots:
                    slots[nxt] = want
                    queue.append(nxt)
                elif slots[nxt] != want:
                    raise NotIntegrated(
                        f"variable group {{{', '.join(groups[nxt])}}} would be labeled both sides"
                    )
    free = [k for k in range(len(groups)) if k not in slots]
    slots.update((k, 2 + 2 * i) for i, k in enumerate(free))
    matches = structural_condition3(q)
    if matches is None:
        raise NotIntegrated("some constraint does not match exactly one row")
    matched = set()
    for k, _ in matches:
        if k in matched:
            raise NotIntegrated(
                "two constraints resolve to the same tuple "
                f"{format_tuple(q.rows[k].tuple)}; no source pair can produce that"
            )
        matched.add(k)
    return {name: slots[k] for name, k in index.items()}


def free_group_relations() -> list[EprRelation]:
    """Recognized integrations with 0 to 3 free groups: those of the golden
    corpus's gen_pr_pair seeds, and generated ones with 0 to 3 blocks."""
    relations = []
    for seed in range(50):
        q = integrate_pr(*gen_pr_pair(seed))
        try:
            partition(q)
        except NotIntegrated:
            continue
        relations.append(q)
    relations += [gen_integrated_epr(seed, blocks) for seed in range(15) for blocks in range(4)]
    return relations


def consistent_pw_docs(worlds: int, seed: int = 0) -> tuple[dict, dict]:
    """The two pw documents of ``perfbench.workloads.consistent_pw_pair`` with
    ``worlds`` worlds each, over 10 common and 10 private tuples: the inputs
    of the benchmark's pw workload, at any size."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import consistent_pw_pair

    left, right, _ = consistent_pw_pair(random.Random(seed), worlds, 10, 10)
    return left, right


def lines_run(module, fn, *args) -> int:
    """Line events run in ``module``'s source file while fn(*args) runs.

    Measures work from outside the code under test, through the tracer of
    ``reach.tracing``: one event per Python line run, so the work a builtin
    does inside one line (``map``, ``sorted``, ``set``, ``sum`` over every
    world) counts once.
    """
    counts = Counter()
    with tracing({module.__file__}, counts):
        fn(*args)
    return counts.total()


# Pieces of formula text: names (plain and qualified), constants, every
# operator, whitespace, comments, and characters and names the parser rejects.
FORMULA_TOKENS = [
    "a", "b", "x1", "_y", "s::a", "s::t::b", "true", "false",
    "!", "(", ")", "&", "|", "->", "<->",
    " ", "\n", "\t", "# note\n", "#", "@", "-", "<", ":", "::", "a::", "1", "\u00e9",
]


def formula_texts(names=("a", "b", "s::a")):
    """Formula text: a printed random formula over names, with whitespace or a
    comment around it, or a string of random FORMULA_TOKENS."""
    printed = st.builds(
        lambda seed, depth: to_text(gen_formula(random.Random(seed), names, depth)),
        st.integers(0, 2**32),
        st.integers(0, 3),
    )
    padding = st.sampled_from(["", " ", "\n", "# note\n"])
    tokens = st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12)
    soup = st.builds(str.join, st.sampled_from(["", " "]), tokens)
    return st.one_of(st.builds(lambda a, f, b: a + f + b, padding, printed, padding), soup)
