"""Normalization to standard form: classes, properties, plain relations.

normalize() is the only entry point.  Each pass applies two stages in a fixed
order:

* stage 1 adds implied elements: equivalence copies of holdings and
  subject-position relations, the subclass closure (cycles become
  equivalences), and the lift of relations up the subclass hierarchy;
* stage 2, in pass 1 only, replaces the modifiers by plain elements, kind by
  kind: symmetric and inverse properties mirror relations, an intersection
  becomes subclass axioms and a transitive property is closed.

Passes repeat until one leaves the model unchanged, so elements produced by
stage 2 (say, a relation expanded from a symmetric property) still feed
stage-1 rules on the next pass.  Rules only add elements (the first closure
drops the input's self-subclass axioms), so the fixpoint exists; an element
budget guards against pathological blow-up.  It counts what the output can
hold: the modifiers leave the working model when the run starts, and the
self-axioms do not count.  It refuses each batch of insertions that would
take the count past it, before the batch goes in, and a closure stops as
soon as its pairs pass the room that is left.  One _Run object carries a
run's state: the model, the modifiers in order, the bound, the warnings, what
each rule keeps from pass to pass, and the tally and batch log.

Passes after the first only redo what the previous pass's additions call for
(semi-naive evaluation): the subclass closure reruns only when the axiom set
changed, the relation lift only pairs new relations with every axiom and
old relations with new axioms, and the equivalence copy only buckets
elements added since its last run unless the groups changed.  Elements are
dicts in insertion order, so "new" is "past the position that a rule noted
when it last ran".  Each rule reports whether it inserted or removed an
element, and the fixpoint ends on the first pass where none did.

Each rule computes the keys it adds, all of them absent so far, in the
order its scan meets them, which is deterministic but not sorted, and hands
them to _Run.add, which inserts them in one dict update, logs them as one
batch and says whether any went in.  The closures read the kernel's bitset
rows (see closure.py) and take only the bits that are not edges already.

The log holds one (rule, start, end, axioms, extra) entry per batch: the
positions the batch took in its collection, the number of subclass axioms
when it went in, and a copy's group, the stage-2 modifier or a cycle merge's
pairs (None otherwise).  Only the first closure removes elements, the input's
self-axioms, and it does so before it logs its batch and before any batch
whose positions or axiom count index the subclass axioms.  So the positions
index the result's collections and say what was present before each batch;
trace.py rebuilds every element's derivation from them.

RULES names the rules in tally order, each with the OWL 2 RL rules it
applies (W3C OWL 2 Profiles, section 4.3) as tests/randmodels.py's rule table
names them.  Two of its rows are no rule's: equivalence-sym, which unordered
equivalence pairs state, and prp-inv2, the reverse inverseOf mirror.
"""

from __future__ import annotations

from collections import namedtuple
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
    el_modifier,
    el_subclass,
)

# rule name -> the OWL 2 RL rules it applies, in tally order (see above)
RULES = {
    "equiv-property-copy": ("holding-copy",),
    "equiv-relation-copy": ("subject-copy",),
    "subclass-closure": ("scm-sco", "scm-eqc2"),
    "relation-lift": ("relation-lift",),
    "symmetric-expand": ("prp-symp",),
    "inverse-expand": ("prp-inv1",),
    "intersection-to-subclass": ("scm-int",),
    "transitive-close": ("prp-trp",),
}

DEFAULT_BOUND = 100000


# the rewritten model, batch log, warnings, pass count and elements per rule
NormalizeResult = namedtuple("NormalizeResult", "model log warnings passes tally")


class _Run:
    """One normalize run: the model it rewrites, its modifiers, the bound, the
    tally, the batch log, the warnings, and what the rules carry
    from pass to pass, so that a pass redoes only what the previous pass's
    additions call for.  A fresh instance makes every rule start from scratch.
    """

    def __init__(self, m: OntologyModel, bound: int) -> None:
        self.m = m
        # the modifiers leave the model, by kind in the order stage 2 applies them, then
        # by key (RawModifier.key order alone would put intersection first and change traces)
        order = (SYMMETRIC, INVERSE, INTERSECTION, TRANSITIVE)
        self.modifiers = sorted(m.modifiers, key=lambda mod: (order.index(mod.kind), mod.key()))
        m.modifiers = set()
        self.self_axioms = sum(sub == sup for sub, sup in m.subclass_axioms)  # until dropped
        self.bound = bound
        self.tally = dict.fromkeys(RULES, 0)
        self.log: list[tuple] = []
        self.warnings: list[Diagnostic] = []
        self.closed: int | None = None  # len(subclass_axioms) after the last closure
        self.warned: set = set()  # cycle groups already reported
        self.lifted = (0, 0)  # len(relations), len(subclass_axioms) after the last lift
        self.equivalences = 0  # len(equivalences) that group_of was built from
        self.group_of: dict[str, tuple[str, ...]] = {}  # name -> its group, sorted
        self.copied = (0, 0)  # len(holdings), len(relations) at the last copy

    def count(self) -> int:
        """The budget's count: the elements, less the input's self-axioms not dropped yet."""
        return self.m.element_count() - self.self_axioms

    def admit(self, growth: int) -> None:
        """Refuse a batch of growth new elements that would take the count
        past the bound; FixpointOverflow gives the count it would reach."""
        if self.bound:
            count = self.count() + growth
            if count > self.bound:
                raise FixpointOverflow(count, self.bound)

    def record(self, rule: str, start: int, end: int, extra=None) -> None:
        """Count and log a batch that rule inserted at positions start..end-1
        of its collection; an empty one is not logged.  A cycle merge gives
        0 and its pair count, since the equivalences are a set."""
        if end > start:
            self.tally[rule] += end - start
            self.log.append((rule, start, end, len(self.m.subclass_axioms), extra))

    def add(self, elements: dict, rule: str, keys, extra=None) -> bool:
        """Insert keys with origin rule in one update, log them as one batch
        and say whether any went in.  The keys are distinct and none is
        present yet, so no origin is overwritten, and the model grows by
        len(keys), which the bound must allow."""
        self.admit(len(keys))
        start = len(elements)
        elements.update(zip(keys, repeat(rule)))
        self.record(rule, start, len(elements), extra)
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
    kinds = (("equiv-property-copy", m.holdings), ("equiv-relation-copy", m.relations))
    # one unsorted pass per kind buckets the candidate patterns by their group;
    # groups are disjoint, so one group's copies never land in another's bucket
    buckets = []
    for (_, elements), start in zip(kinds, run.copied):
        by_group: dict[tuple, dict[tuple, None]] = {}
        for key in islice(elements, start, None):
            group = group_of.get(key[1])
            if group is not None:
                by_group.setdefault(group, {})[key[::2]] = None
        buckets.append(by_group)

    changed = False
    for group in dict.fromkeys(group_of.values()):  # in sorted group order
        for (rule, elements), by_group in zip(kinds, buckets):
            changed |= run.add(
                elements,
                rule,
                [
                    key
                    for first, *rest in by_group.get(group, ())
                    for member in group
                    if (key := (first, member, *rest)) not in elements
                ],
                group,
            )
    run.copied = (len(m.holdings), len(m.relations))
    return changed


def _close(edges, run: _Run, drops_self_pairs: bool = False):
    """Transitive closure of a graph given as distinct (name, name) edges,
    which are elements already: the sorted node names and the kernel's
    Reachability.

    The kernel's pair limit is the room left in the budget plus the pairs
    that add no element: the edges, and one self-pair per node when the
    caller drops those.  Pairs past it would take the model past the bound,
    and FixpointOverflow gives the count that the pairs found so far make.
    """
    names = sorted({n for edge in edges for n in edge})
    index = {n: i for i, n in enumerate(names)}
    free = len(edges) + (len(names) if drops_self_pairs else 0)
    limit = run.bound - run.count() + free if run.bound else 0
    try:
        reach = closure.reachable_pairs(
            len(names), [(index[a], index[b]) for a, b in edges], limit=limit
        )
    except closure.PairLimitExceeded as exc:
        raise FixpointOverflow(run.count() - free + exc.pairs, run.bound) from None
    return names, reach


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
        run.admit(len(batch))
        m.equivalences.update(batch)
        changed |= bool(batch)
        run.record("subclass-closure", 0, len(batch), batch)
    return changed


def _close_subclass_hierarchy(m: OntologyModel, run: _Run) -> bool:
    axioms = m.subclass_axioms
    # only the closure drops axioms, so an unchanged count means an unchanged set
    if not axioms or len(axioms) == run.closed:
        return False  # nothing to close, or closed already by the last run
    names, reach = _close(axioms, run, drops_self_pairs=True)
    # components are sorted and names is sorted, so index order is name order
    cycles = [[names[u] for u in cycle] for cycle in sorted(reach.cycles)]
    changed = _merge_cycles(m, run, cycles)

    dropped = [(name, name) for cycle in cycles for name in cycle if (name, name) in axioms]
    for key in dropped:
        del axioms[key]  # self-axioms are dropped
    run.self_axioms = 0  # the input's were among them, and no rule adds one
    found = [(names[u], names[v]) for u, targets in reach.derived() for v in targets if v != u]
    added = run.add(axioms, "subclass-closure", found)
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


def _lift_relations(m: OntologyModel, run: _Run) -> bool:
    """Add r(s, sup) for every r(s, o) and o -> sup.

    Relations present when the last lift ended were lifted over every axiom
    present then, and what that lift added needs no lift of its own, because
    the axiom set it used was closed.  So only two kinds of pair can produce
    a missing element: a newer relation with any axiom, and an older relation
    with a newer axiom.  The elements go in in the order the scan meets them.
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

    added = run.add(relations, "relation-lift", dict.fromkeys(_missing_lifts(scans, relations)))
    run.lifted = (len(relations), len(axioms))
    return added


# -- stage 2 -------------------------------------------------------------------

def _mirror(m: OntologyModel, run: _Run, rule: str, mod: RawModifier, counterpart: str) -> None:
    """Add counterpart(o, s) for every target(s, o); a symmetric property is
    its own counterpart."""
    relations = m.relations
    found = [key for key in relations if key[0] == mod.target]
    run.add(
        relations,
        rule,
        [key for _, subject, obj in found if (key := (counterpart, obj, subject)) not in relations],
        mod,
    )


def _rewrite_modifiers(m: OntologyModel, run: _Run) -> bool:
    """Replace the run's modifiers by the plain elements they imply; a pass
    that applies any changes the output, which holds none.  They go in
    run.modifiers order, so a transitive closure sees the relations that
    mirroring added; within a kind, modifiers go in RawModifier.key order."""
    for mod in run.modifiers:
        if mod.kind == SYMMETRIC:
            _mirror(m, run, "symmetric-expand", mod, mod.target)
        elif mod.kind == INVERSE:
            counterpart = mod.counterpart or mod.target
            if counterpart not in m.properties:
                run.warn(
                    "undeclared-inverse",
                    f"inverse property {counterpart} was not declared; created",
                    el_modifier(mod),
                )
                m.declare_property(counterpart, OBJECT)
            _mirror(m, run, "inverse-expand", mod, counterpart)
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
                "intersection-to-subclass",
                dict.fromkeys(
                    key
                    for member in mod.members
                    if member != mod.target
                    and (key := (mod.target, member)) not in m.subclass_axioms
                ),
                mod,
            )
        else:
            pred = mod.target
            names, reach = _close(
                [(subject, obj) for p, subject, obj in m.relations if p == pred], run
            )
            # only the pairs that are not relations yet, in sorted order
            run.add(
                m.relations,
                "transitive-close",
                [(pred, names[u], names[v]) for u, targets in reach.derived() for v in targets],
                mod,
            )
    return bool(run.modifiers)


# -- fixpoint driver -------------------------------------------------------------


def normalize(m: OntologyModel, bound: int = DEFAULT_BOUND) -> NormalizeResult:
    """Run both stages to a joint fixpoint; the result carries no modifiers.

    tally counts every derived element by rule, and log holds the batches
    that fuzzonto.trace.traces() rebuilds the derivations from.
    """
    work = m.copy()
    work.normalized = False
    run = _Run(work, bound)
    run.admit(0)  # the input may be past the bound already
    passes = 0

    changed = True
    while changed:
        # every stage-1 rule runs on every pass; |= does not short-circuit
        changed = _propagate_equivalents(work, run)
        changed |= _close_subclass_hierarchy(work, run)
        changed |= _lift_relations(work, run)
        changed |= passes == 0 and _rewrite_modifiers(work, run)  # in pass 1 only
        passes += 1

    work.normalized = True
    return NormalizeResult(work, tuple(run.log), tuple(run.warnings), passes, run.tally)
