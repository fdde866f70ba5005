"""Normalization to standard form: classes, properties, plain relations.

normalize() is the only entry point.  Each pass applies two stages in a fixed
order:

* stage 1 adds implied elements: equivalence copies of holdings and
  subject-position relations, the subclass closure (cycles become
  equivalences), and the lift of relations up the subclass hierarchy;
* stage 2 replaces the modifiers by plain elements, kind by kind: symmetric
  and inverse properties mirror relations, an intersection becomes subclass
  axioms and a transitive property is closed.  Then the modifiers are gone.

Passes repeat until one leaves the model unchanged, so elements produced by
stage 2 (say, a relation expanded from a symmetric property) still feed
stage-1 rules on the next pass.  Every rule only ever adds elements or drops
the modifiers, so the fixpoint exists; a configurable element budget guards
against pathological blow-up.  One _Run object carries a run's state: the
bound, the warnings, what each rule keeps from pass to pass, and the tally
and traces.

Passes after the first only redo what the previous pass's additions call for
(semi-naive evaluation): the subclass closure reruns only when the axiom set
changed, the relation lift only pairs new relations with every axiom and
old relations with new axioms, and the equivalence copy only buckets
elements added since its last run unless the groups changed.  Elements are
dicts in insertion order, so "new" is "past the position that a rule noted
when it last ran".  Each rule reports whether it inserted or removed an
element, and the fixpoint ends on the first pass where none did.

Each rule computes the keys it adds, all of them absent so far, and hands
them to _Run.add, which inserts them in one dict update, records them as one
batch and says whether any went in.  Only with tracing on are a rule's
producers sorted, so that each element's trace names its least producer and
traces come in a fixed order; without it, keys go in in the order the rule's
scan meets them, which is deterministic but not sorted.  Either way the
element set and every origin are the same.  The closures read the kernel's
bitset rows (see closure.py) and take only the bits that are not edges
already; a traced closure cites, for each pair it adds, the least
intermediate class that the same forward rows give (_witness).
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import islice, repeat

from . import closure
from .closure import bits
from .errors import FixpointOverflow
from .model import (
    INTERSECTION,
    INVERSE,
    OBJECT,
    SYMMETRIC,
    TRANSITIVE,
    Diagnostic,
    OntologyModel,
    RawModifier,
    el_equivalence,
    el_holding,
    el_modifier,
    el_relation,
    el_subclass,
)

# Rule identifiers, by what each rewrite does.
RULE_EQUIV_PROPERTY = "equiv-property-copy"
RULE_EQUIV_RELATION = "equiv-relation-copy"
RULE_SUBCLASS_CLOSURE = "subclass-closure"
RULE_RELATION_LIFT = "relation-lift"
RULE_SYMMETRIC = "symmetric-expand"
RULE_INVERSE = "inverse-expand"
RULE_INTERSECTION = "intersection-to-subclass"
RULE_TRANSITIVE = "transitive-close"

ALL_RULES = (
    RULE_EQUIV_PROPERTY,
    RULE_EQUIV_RELATION,
    RULE_SUBCLASS_CLOSURE,
    RULE_RELATION_LIFT,
    RULE_SYMMETRIC,
    RULE_INVERSE,
    RULE_INTERSECTION,
    RULE_TRANSITIVE,
)

DEFAULT_BOUND = 100000


class RewriteTrace(namedtuple("RewriteTrace", "rule produced sources", defaults=((),))):
    """First derivation of one element: which rule produced it from what
    (a tuple of rendered source elements)."""

    __slots__ = ()


class NormalizeResult:
    def __init__(
        self,
        model: OntologyModel,
        traces: tuple[RewriteTrace, ...],
        warnings: tuple[Diagnostic, ...],
        passes: int,
        tally: dict[str, int],
    ) -> None:
        self.model = model
        self.traces = traces
        self.warnings = warnings
        self.passes = passes
        self.tally = tally


class _Run:
    """One normalize run: the element bound, the tally, the traces when
    tracing, the warnings, and what the rules carry from pass to pass, so that
    a pass redoes only what the previous pass's additions call for.  A fresh
    instance makes every rule start from scratch.
    """

    def __init__(self, trace: bool, bound: int) -> None:
        self.trace = trace
        self.bound = bound
        self.tally = dict.fromkeys(ALL_RULES, 0)
        self.traces: list[RewriteTrace] = []
        self.warnings: list[Diagnostic] = []
        self.closed: int | None = None  # len(subclass_axioms) after the last closure
        self.warned: set = set()  # cycle groups already reported
        self.lifted = (0, 0)  # len(relations), len(subclass_axioms) after the last lift
        self.equivalences = 0  # len(equivalences) that group_of was built from
        self.group_of: dict[str, tuple[str, ...]] = {}  # name -> its group, sorted
        self.copied = (0, 0)  # len(holdings), len(relations) at the last copy

    def record(self, rule: str, batch, render) -> None:
        """Count the elements of one batch that rule inserted.  render(item)
        returns one element and its sources as rendered strings; it is called
        only when tracing, so an untraced run renders nothing and finds no
        witness."""
        self.tally[rule] += len(batch)
        if self.trace:
            self.traces.extend([RewriteTrace(rule, *render(item)) for item in batch])

    def add(self, elements: dict, rule: str, keys, render) -> bool:
        """Insert keys with origin rule in one update, record them as one
        batch and say whether any went in.  The keys are distinct and none is
        present yet, so no origin is overwritten."""
        elements.update(zip(keys, repeat(rule)))
        self.record(rule, keys, render)
        return bool(keys)

    def warn(self, code: str, message: str, location: str) -> None:
        self.warnings.append(Diagnostic(code, "warning", message, location))


# -- stage 1 -------------------------------------------------------------------


def _propagate_equivalents(m: OntologyModel, run: _Run) -> bool:
    """Copy holdings and subject-position relations to every member of the
    holder's or subject's equivalence group.

    Both keys hold the holder or subject at position 1; the rest of the key,
    key[::2], is the pattern a copy keeps.  A copy completes its (group,
    pattern) bucket, so while the groups stay the same only elements added
    since the last copy can need copying; new groups make every element a
    candidate.
    """
    if not m.equivalences:
        return False
    if len(m.equivalences) != run.equivalences:
        run.equivalences = len(m.equivalences)
        run.group_of = closure.groups(m.equivalences)
        run.copied = (0, 0)
    group_of = run.group_of
    kinds = (
        (RULE_EQUIV_PROPERTY, m.holdings, el_holding),
        (RULE_EQUIV_RELATION, m.relations, el_relation),
    )
    # one unsorted pass per kind buckets the candidates by their group; groups
    # are disjoint, so one group's copies never land in another's bucket
    buckets = []
    for (_, elements, _), start in zip(kinds, run.copied):
        by_group: dict[tuple, dict[tuple, list[str]]] = {}
        for key in islice(elements, start, None):
            group = group_of.get(key[1])
            if group is not None:
                by_group.setdefault(group, {}).setdefault(key[::2], []).append(key[1])
        buckets.append(by_group)

    changed = False
    for group in dict.fromkeys(group_of.values()):  # in sorted group order
        for (rule, elements, render), by_group in zip(kinds, buckets):
            by_pattern = by_group.get(group, {})
            found = sorted(by_pattern) if run.trace else by_pattern
            changed |= run.add(
                elements,
                rule,
                [
                    key
                    for first, *rest in found
                    for member in group
                    if (key := (first, member, *rest)) not in elements
                ],
                lambda key: (
                    render(*key),
                    (render(key[0], min(by_pattern[key[::2]]), *key[2:]),),
                ),
            )
    run.copied = (len(m.holdings), len(m.relations))
    return changed


def _witness(rows: list[int], u: int, v: int) -> int | None:
    """Least w other than u and v with (u, w) and (w, v) both closure pairs,
    or None: the first of rows[u]'s bits, low to high, whose row has bit v.
    w = u or w = v would cite the derived element itself or a self-pair that
    the subclass closure drops."""
    bit = 1 << v
    candidates = rows[u]  # skipping u and v in the walk is cheaper than masking them
    while candidates:
        low = candidates & -candidates
        w = low.bit_length() - 1
        if rows[w] & bit and w != u and w != v:
            return w
        candidates ^= low
    return None


def _sources(names: list[str], rows: list[int], u: int, v: int, render) -> tuple[str, ...]:
    """The two edges through the witness of (u, v), rendered by render(a, b);
    empty when there is no witness."""
    w = _witness(rows, u, v)
    return () if w is None else (render(names[u], names[w]), render(names[w], names[v]))


def _close(edges, run: _Run):
    """Transitive closure of a graph given as (name, name) edges: the sorted
    node names, their index and the kernel's Reachability."""
    names = sorted({n for edge in edges for n in edge})
    index = {n: i for i, n in enumerate(names)}
    reach = closure.reachable_pairs(
        len(names), [(index[a], index[b]) for a, b in edges], limit=run.bound
    )
    return names, index, reach


def _merge_cycles(m: OntologyModel, run: _Run, cycles: list[list[str]]) -> bool:
    """Cycle policy: self-axioms are dropped (by the caller) and mutually
    subclassed classes become equivalent.  Each group is reported once per
    run, however often the closure reruns."""
    changed = False
    for cycle in cycles:
        report = tuple(cycle) not in run.warned
        run.warned.add(tuple(cycle))
        if len(cycle) == 1:
            if report:
                run.warn(
                    "self-subclass",
                    f"self-subclass axiom on {cycle[0]} dropped",
                    el_subclass(cycle[0], cycle[0]),
                )
            continue
        if report:
            run.warn(
                "cyclic-hierarchy",
                "mutually-subclassed classes treated as equivalent: " + ", ".join(cycle),
                el_subclass(cycle[0], cycle[1]),
            )
        head = cycle[0]  # the least member, so (head, other) is the stored order
        batch = [(head, other) for other in cycle[1:] if (head, other) not in m.equivalences]
        m.equivalences.update(batch)
        changed |= bool(batch)
        run.record(
            RULE_SUBCLASS_CLOSURE,
            batch,
            lambda pair: (
                el_equivalence(*pair),
                (el_subclass(*pair), el_subclass(pair[1], pair[0])),
            ),
        )
    return changed


def _close_subclass_hierarchy(m: OntologyModel, run: _Run) -> bool:
    axioms = m.subclass_axioms
    # only the closure drops axioms, so an unchanged count means an unchanged set
    if not axioms or len(axioms) == run.closed:
        return False  # nothing to close, or closed already by the last run
    names, index, reach = _close(axioms, run)
    # components are sorted and names is sorted, so index order is name order
    cycles = [[names[u] for u in cycle] for cycle in sorted(reach.cycles)]
    changed = _merge_cycles(m, run, cycles)

    dropped = [(name, name) for cycle in cycles for name in cycle if (name, name) in axioms]
    for key in dropped:
        del axioms[key]  # self-axioms are dropped
    added = run.add(
        axioms,
        RULE_SUBCLASS_CLOSURE,
        [
            (names[u], names[v])
            for u, targets in reach.derived()
            for v in targets
            if v != u
        ],
        lambda key: (
            el_subclass(*key),
            _sources(names, reach.rows, index[key[0]], index[key[1]], el_subclass),
        ),
    )
    run.closed = len(axioms)
    return changed or added or bool(dropped)


def _missing_lifts(scans, relations: dict) -> list[tuple[str, str, str]]:
    """The lifts that the scanned (relations, superclass lists) pairs call for
    and that are not relations yet, in the order the scan meets them; a key
    can repeat.

    A relation whose object has one superclass gives its one candidate.
    Relations whose objects have more are grouped by (predicate, subject),
    and a group's candidates are the OR of its objects' superclass rows, so a
    superclass that many of the group's objects share is tested once.  Where
    objects have one superclass, as in a wide shallow hierarchy, grouping
    would cost more than it saves.
    """
    found = []
    slot: dict[str, int] = {}  # superclass -> its bit in the rows
    by_slot: list[str] = []
    groups: dict[tuple[str, str], int] = {}
    for scanned, ups in scans:
        rows: dict[str, int] = {}  # object -> its row over these superclass lists
        for pred, subject, obj in scanned:
            sups = ups.get(obj)
            if sups is None:
                continue
            if len(sups) == 1:
                key = (pred, subject, sups[0])
                if key not in relations:
                    found.append(key)
                continue
            row = rows.get(obj)
            if row is None:
                row = 0
                for sup in sups:
                    bit = slot.get(sup)
                    if bit is None:
                        bit = slot[sup] = len(by_slot)
                        by_slot.append(sup)
                    row |= 1 << bit
                rows[obj] = row
            group = (pred, subject)
            groups[group] = groups.get(group, 0) | row
    for (pred, subject), row in groups.items():
        for bit in bits(row):
            key = (pred, subject, by_slot[bit])
            if key not in relations:
                found.append(key)
    return found


def _least_producers(scans, found) -> dict[tuple[str, str, str], str]:
    """For each found lift r(s, sup), the least object o of a scanned
    r(s, o) whose superclass list holds sup."""
    wanted: dict[tuple[str, str], set[str]] = {}
    for pred, subject, sup in found:
        wanted.setdefault((pred, subject), set()).add(sup)
    producer: dict[tuple[str, str, str], str] = {}
    for scanned, ups in scans:
        for pred, subject, obj in scanned:
            sups = wanted.get((pred, subject))
            if sups is None:
                continue
            for sup in ups.get(obj, ()):
                if sup in sups:
                    key = (pred, subject, sup)
                    least = producer.get(key)
                    if least is None or obj < least:
                        producer[key] = obj
    return producer


def _lift_relations(m: OntologyModel, run: _Run) -> bool:
    """Add r(s, sup) for every r(s, o) and o -> sup.

    Relations present when the last lift ended were lifted over every axiom
    present then, and what that lift added needs no lift of its own, because
    the axiom set it used was closed.  So only two kinds of pair can produce
    a missing element: a newer relation with any axiom, and an older relation
    with a newer axiom.  Untraced, the elements go in in the order the scan
    meets them.  When tracing, they go in sorted by their least producer
    (predicate, subject, object, sup), the order one sorted sweep over every
    producer would give, and each trace names that producer.
    """
    relations, axioms = m.relations, m.subclass_axioms
    lifted, seen = run.lifted
    keys = list(relations)
    supers: dict[str, list[str]] = {}
    for sub, sup in axioms:
        supers.setdefault(sub, []).append(sup)
    scans = [(keys[lifted:], supers)]
    # past the mark means new: no rule adds a self-axiom, and the first closure drops the input's
    fresh_supers: dict[str, list[str]] = {}
    for sub, sup in islice(axioms, seen, None) if lifted else ():
        fresh_supers.setdefault(sub, []).append(sup)
    if fresh_supers:
        scans.append((keys[:lifted], fresh_supers))

    found = dict.fromkeys(_missing_lifts(scans, relations))
    producer = {}
    if run.trace:
        producer = _least_producers(scans, found)
        found = sorted(found, key=lambda key: (key[0], key[1], producer[key], key[2]))
    added = run.add(
        relations,
        RULE_RELATION_LIFT,
        found,
        lambda key: (
            el_relation(*key),
            (el_relation(key[0], key[1], producer[key]), el_subclass(producer[key], key[2])),
        ),
    )
    run.lifted = (len(relations), len(axioms))
    return added


# -- stage 2 -------------------------------------------------------------------

# the order in which stage 2 applies the modifier kinds; not RawModifier.key
# order, which would put intersection first and change origins and traces
_STAGE2_ORDER = {SYMMETRIC: 0, INVERSE: 1, INTERSECTION: 2, TRANSITIVE: 3}


def _mirror(m: OntologyModel, run: _Run, rule: str, mod: RawModifier, counterpart: str) -> None:
    """Add counterpart(o, s) for every target(s, o); a symmetric property is
    its own counterpart.  The sources go in sorted order only when tracing."""
    relations = m.relations
    found = [key for key in relations if key[0] == mod.target]
    if run.trace:
        found.sort()
    run.add(
        relations,
        rule,
        [key for _, subject, obj in found if (key := (counterpart, obj, subject)) not in relations],
        lambda key: (
            el_relation(*key),
            (el_relation(mod.target, key[2], key[1]), el_modifier(mod)),
        ),
    )


def _rewrite_modifiers(m: OntologyModel, run: _Run) -> bool:
    """Replace every modifier by the plain elements it implies, then drop
    them all.  Kinds go in _STAGE2_ORDER, so a transitive closure sees the
    relations that mirroring added; within a kind, modifiers go in
    RawModifier.key order."""
    if not m.modifiers:
        return False
    for mod in sorted(m.modifiers, key=lambda mod: (_STAGE2_ORDER[mod.kind], mod.key())):
        if mod.kind == SYMMETRIC:
            _mirror(m, run, RULE_SYMMETRIC, mod, mod.target)
        elif mod.kind == INVERSE:
            counterpart = mod.counterpart or mod.target
            if counterpart not in m.properties:
                run.warn(
                    "undeclared-inverse",
                    f"inverse property {counterpart} was not declared; created",
                    el_modifier(mod),
                )
                m.declare_property(counterpart, OBJECT)
            _mirror(m, run, RULE_INVERSE, mod, counterpart)
        elif mod.kind == INTERSECTION:
            if not mod.members:
                run.warn(
                    "empty-intersection",
                    f"intersection for {mod.target} lists no members; dropped",
                    el_modifier(mod),
                )
            # member == target would be the vacuous C <= C
            run.add(
                m.subclass_axioms,
                RULE_INTERSECTION,
                dict.fromkeys(
                    key
                    for member in mod.members
                    if member != mod.target
                    and (key := (mod.target, member)) not in m.subclass_axioms
                ),
                lambda key: (el_subclass(*key), (el_modifier(mod),)),
            )
        else:
            pred = mod.target
            names, index, reach = _close(
                [(subject, obj) for p, subject, obj in m.relations if p == pred], run
            )
            # only the pairs that are not relations yet, in sorted order
            render = partial(el_relation, pred)
            run.add(
                m.relations,
                RULE_TRANSITIVE,
                [
                    (pred, names[u], names[v])
                    for u, targets in reach.derived()
                    for v in targets
                ],
                lambda key: (
                    el_relation(*key),
                    _sources(names, reach.rows, index[key[1]], index[key[2]], render),
                ),
            )
    m.modifiers.clear()
    return True


# -- fixpoint driver -------------------------------------------------------------


def normalize(
    m: OntologyModel, bound: int = DEFAULT_BOUND, trace: bool = False
) -> NormalizeResult:
    """Run both stages to a joint fixpoint; the result carries no modifiers.

    With trace=False the result's traces are empty; tally still counts every
    derived element by rule.
    """
    work = m.copy()
    work.normalized = False
    run = _Run(trace, bound)
    passes = 0

    changed = True
    while changed:
        try:
            # every rule runs; |= does not short-circuit
            changed = _propagate_equivalents(work, run)
            changed |= _close_subclass_hierarchy(work, run)
            changed |= _lift_relations(work, run)
            changed |= _rewrite_modifiers(work, run)
        except OverflowError:
            raise FixpointOverflow(work.element_count(), bound) from None
        passes += 1
        if bound and work.element_count() > bound:
            raise FixpointOverflow(work.element_count(), bound)

    work.normalized = True
    return NormalizeResult(work, tuple(run.traces), tuple(run.warnings), passes, run.tally)
