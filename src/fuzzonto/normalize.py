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
against pathological blow-up.  Every derived element is counted, and traced
when asked for, through Tracer.record.

Passes after the first only redo what the previous pass's additions call for
(semi-naive evaluation): the subclass closure reruns only when the axiom set
changed, and the relation lift only pairs new relations with every axiom and
old relations with new axioms.  Each rule reports whether it inserted or
removed an element, and the fixpoint ends on the first pass where none did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import closure
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
)
from .partition import UnionFind

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


# -- element rendering for traces ---------------------------------------------


def el_holding(prop: str, holder: str) -> str:
    return f"holding {prop}/{holder}"


def el_relation(pred: str, subject: str, obj: str) -> str:
    return f"relation {pred}({subject}, {obj})"


def el_subclass(sub: str, sup: str) -> str:
    return f"subclass {sub} -> {sup}"


def el_equivalence(a: str, b: str) -> str:
    a, b = sorted((a, b))
    return f"equivalence ({a}, {b})"


def el_modifier(mod: RawModifier) -> str:
    if mod.kind == INVERSE:
        return f"inverse {mod.target} of {mod.counterpart}"
    if mod.kind == INTERSECTION:
        return f"intersection {mod.target} = {' & '.join(mod.members)}"
    return f"{mod.kind} {mod.target}"


@dataclass(frozen=True)
class RewriteTrace:
    """First derivation of one element: which rule produced it from what."""

    rule: str
    produced: str
    sources: tuple[str, ...] = ()


class Tracer:
    """Counts every derivation per rule; keeps its trace only when enabled."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.traces: list[RewriteTrace] = []
        self.tally: dict[str, int] = {rule: 0 for rule in ALL_RULES}

    def record(self, rule: str, derivation) -> None:
        """Count one element derived by rule.  derivation() returns the
        element and its sources as rendered strings; it is called only when
        tracing, so a disabled tracer renders nothing and finds no witness."""
        self.tally[rule] += 1
        if self.enabled:
            produced, sources = derivation()
            self.traces.append(RewriteTrace(rule, produced, sources))


@dataclass
class NormalizeResult:
    model: OntologyModel
    traces: tuple[RewriteTrace, ...]
    warnings: tuple[Diagnostic, ...]
    passes: int
    tally: dict[str, int] = field(default_factory=dict)


@dataclass
class _Progress:
    """What one normalize run carries from pass to pass, so that a pass redoes
    only what the previous pass's additions call for.  A fresh instance makes
    every rule start from scratch.
    """

    closed: set | None = None  # subclass keys the last closure produced
    lifted: int = 0  # len(relations) when the last lift ended
    lift_axioms: set = field(default_factory=set)  # subclass keys that lift used
    warned: set = field(default_factory=set)  # cycle groups already reported


# -- stage 1 -------------------------------------------------------------------


def _equivalence_groups(m: OntologyModel) -> list[list[str]]:
    """Equivalence classes of m.equivalences, ordered by their sorted members
    (so the order does not depend on set iteration or the hash seed)."""
    uf = UnionFind()
    for a, b in m.equivalences:
        uf.union(a, b)
    return uf.groups()


def _propagate_equivalents(m: OntologyModel, tracer: Tracer) -> bool:
    groups = _equivalence_groups(m)
    if not groups:
        return False
    group_of = {name: i for i, group in enumerate(groups) for name in group}
    # one unsorted pass buckets every holding and relation by its group;
    # groups are disjoint, so one group's copies never land in another's bucket
    holders: list[dict[str, list[str]]] = [{} for _ in groups]
    for prop, holder in m.holdings:
        i = group_of.get(holder)
        if i is not None:
            holders[i].setdefault(prop, []).append(holder)
    subjects: list[dict[tuple[str, str], list[str]]] = [{} for _ in groups]
    for pred, subject, obj in m.relations:
        i = group_of.get(subject)
        if i is not None:
            subjects[i].setdefault((pred, obj), []).append(subject)

    changed = False
    for group, by_property, by_pattern in zip(groups, holders, subjects):
        # datatype-property holdings: any member's property goes to the whole group
        for prop, found in sorted(by_property.items()):
            for member in group:
                if m.add_holding(prop, member, RULE_EQUIV_PROPERTY):
                    changed = True
                    tracer.record(
                        RULE_EQUIV_PROPERTY,
                        lambda: (
                            el_holding(prop, member),
                            (el_holding(prop, min(found)),),
                        ),
                    )

        # subject-position relations likewise
        for (pred, obj), found in sorted(by_pattern.items()):
            for member in group:
                if m.add_relation(pred, member, obj, RULE_EQUIV_RELATION):
                    changed = True
                    tracer.record(
                        RULE_EQUIV_RELATION,
                        lambda: (
                            el_relation(pred, member, obj),
                            (el_relation(pred, min(found), obj),),
                        ),
                    )
    return changed


class _Reach:
    """One reachable_pairs result as forward and backward rows of int bitsets.

    Bit v of fwd[u] and bit u of bwd[v] are set exactly when (u, v) is a pair.
    """

    def __init__(self, n: int, pairs: list[tuple[int, int]]) -> None:
        fwd = [0] * n
        bwd = [0] * n
        for u, v in pairs:
            fwd[u] |= 1 << v
            bwd[v] |= 1 << u
        self.fwd = fwd
        self.bwd = bwd

    def witness(self, u: int, v: int) -> int | None:
        """Least w other than u and v with (u, w) and (w, v) both pairs, or
        None.  w = u or w = v would cite the derived element itself or a
        self-pair that the subclass closure drops."""
        common = self.fwd[u] & self.bwd[v] & ~(1 << u | 1 << v)
        if not common:
            return None
        return (common & -common).bit_length() - 1

    def sources(self, names: list[str], u: int, v: int, render) -> tuple[str, ...]:
        """The two edges through the witness of (u, v), rendered by
        render(a, b); empty when there is no witness."""
        w = self.witness(u, v)
        if w is None:
            return ()
        return (render(names[u], names[w]), render(names[w], names[v]))


def _close(edges, bound: int, tracer: Tracer):
    """Transitive closure of a graph given as (name, name) edges: the sorted
    node names, the reachable index pairs and, only when tracing, their
    witness rows."""
    names = sorted({n for edge in edges for n in edge})
    index = {n: i for i, n in enumerate(names)}
    pairs = closure.reachable_pairs(
        len(names), [(index[a], index[b]) for a, b in edges], limit=bound
    )
    return names, pairs, _Reach(len(names), pairs) if tracer.enabled else None


def _cycle_groups(names: list[str], pairs: list[tuple[int, int]]) -> list[list[str]]:
    """Classes that reach themselves, grouped by mutual reachability; each
    group sorted, groups ordered by their members."""
    cyclic = {u for u, v in pairs if u == v}
    if not cyclic:
        return []
    among = {(u, v) for u, v in pairs if u in cyclic and v in cyclic}
    uf = UnionFind(cyclic)
    for u, v in among:
        if u < v and (v, u) in among:
            uf.union(u, v)
    # names is sorted, so index order is name order
    return [[names[u] for u in group] for group in uf.groups()]


def _merge_cycles(
    m: OntologyModel,
    tracer: Tracer,
    warnings: list[Diagnostic],
    warned: set,
    cycles: list[list[str]],
) -> bool:
    """Cycle policy: self-axioms are dropped (by the caller) and mutually
    subclassed classes become equivalent.  Each group is reported once per
    run, however often the closure reruns."""
    changed = False
    for cycle in cycles:
        report = tuple(cycle) not in warned
        warned.add(tuple(cycle))
        if len(cycle) == 1:
            if report:
                warnings.append(
                    Diagnostic(
                        "self-subclass",
                        "warning",
                        f"self-subclass axiom on {cycle[0]} dropped",
                        el_subclass(cycle[0], cycle[0]),
                    )
                )
            continue
        if report:
            warnings.append(
                Diagnostic(
                    "cyclic-hierarchy",
                    "warning",
                    "mutually-subclassed classes treated as equivalent: "
                    + ", ".join(cycle),
                    el_subclass(cycle[0], cycle[1]),
                )
            )
        head = cycle[0]
        for other in cycle[1:]:
            if m.add_equivalence(head, other):
                changed = True
                tracer.record(
                    RULE_SUBCLASS_CLOSURE,
                    lambda: (
                        el_equivalence(head, other),
                        (el_subclass(head, other), el_subclass(other, head)),
                    ),
                )
    return changed


def _close_subclass_hierarchy(
    m: OntologyModel,
    tracer: Tracer,
    warnings: list[Diagnostic],
    bound: int,
    progress: _Progress,
) -> bool:
    if not m.subclass_axioms or m.subclass_axioms.keys() == progress.closed:
        return False  # nothing to close, or closed already by the last run
    old = dict(m.subclass_axioms)
    names, pairs, reach = _close(old, bound, tracer)
    changed = _merge_cycles(
        m, tracer, warnings, progress.warned, _cycle_groups(names, pairs)
    )

    m.subclass_axioms.clear()
    for u, v in pairs:
        if u == v:
            continue  # self-axioms are dropped
        sub, sup = names[u], names[v]
        origin = old.get((sub, sup))
        if origin is not None:
            m.add_subclass(sub, sup, origin)
            continue
        m.add_subclass(sub, sup, RULE_SUBCLASS_CLOSURE)
        changed = True
        tracer.record(
            RULE_SUBCLASS_CLOSURE,
            lambda: (el_subclass(sub, sup), reach.sources(names, u, v, el_subclass)),
        )
    progress.closed = set(m.subclass_axioms)
    # every old non-self axiom is a pair, so the count differs only when a
    # self-axiom from the input was dropped
    return changed or len(m.subclass_axioms) != len(old)


def _lift_relations(m: OntologyModel, tracer: Tracer, progress: _Progress) -> bool:
    """Add r(s, sup) for every r(s, o) and o -> sup.

    Relations present when the last lift ended were lifted over every axiom
    present then, and what that lift added needs no lift of its own, because
    the axiom set it used was closed.  So only two kinds of pair can produce
    a missing element: a newer relation with any axiom, and an older relation
    with a newer axiom.  Their producers (predicate, subject, object, sup)
    are added in sorted order, so each element keeps its least producer, as
    in one sorted sweep over every pair.
    """
    relations = m.relations
    keys = list(relations)
    supers: dict[str, list[str]] = {}
    for sub, sup in m.subclass_axioms:
        supers.setdefault(sub, []).append(sup)

    found = [
        (pred, subject, obj, sup)
        for pred, subject, obj in keys[progress.lifted :]
        for sup in supers.get(obj, ())
        if (pred, subject, sup) not in relations
    ]
    fresh = [key for key in m.subclass_axioms if key not in progress.lift_axioms]
    if fresh and progress.lifted:
        by_object: dict[str, list[tuple[str, str]]] = {}
        for pred, subject, obj in keys[: progress.lifted]:
            by_object.setdefault(obj, []).append((pred, subject))
        found += [
            (pred, subject, obj, sup)
            for obj, sup in fresh
            for pred, subject in by_object.get(obj, ())
            if (pred, subject, sup) not in relations
        ]
    found.sort()

    changed = False
    for pred, subject, obj, sup in found:
        if not m.add_relation(pred, subject, sup, RULE_RELATION_LIFT):
            continue  # a lesser producer came first
        changed = True
        tracer.record(
            RULE_RELATION_LIFT,
            lambda: (
                el_relation(pred, subject, sup),
                (el_relation(pred, subject, obj), el_subclass(obj, sup)),
            ),
        )
    progress.lifted = len(relations)
    progress.lift_axioms = set(m.subclass_axioms)
    return changed


# -- stage 2 -------------------------------------------------------------------

# the order in which stage 2 applies the modifier kinds; not RawModifier.key
# order, which would put intersection first and change origins and traces
_STAGE2_ORDER = {SYMMETRIC: 0, INVERSE: 1, INTERSECTION: 2, TRANSITIVE: 3}


def _relations_with(m: OntologyModel, predicate: str) -> list[tuple[str, str, str]]:
    """Keys of one predicate's relations, sorted."""
    return sorted(key for key in m.relations if key[0] == predicate)


def _mirror(
    m: OntologyModel, tracer: Tracer, rule: str, mod: RawModifier, counterpart: str
) -> None:
    """Add counterpart(o, s) for every target(s, o); a symmetric property is
    its own counterpart."""
    for pred, subject, obj in _relations_with(m, mod.target):
        if m.add_relation(counterpart, obj, subject, rule):
            tracer.record(
                rule,
                lambda: (
                    el_relation(counterpart, obj, subject),
                    (el_relation(pred, subject, obj), el_modifier(mod)),
                ),
            )


def _rewrite_modifiers(
    m: OntologyModel, tracer: Tracer, warnings: list[Diagnostic], bound: int
) -> bool:
    """Replace every modifier by the plain elements it implies, then drop
    them all.  Kinds go in _STAGE2_ORDER, so a transitive closure sees the
    relations that mirroring added; within a kind, modifiers go in
    RawModifier.key order."""
    if not m.modifiers:
        return False
    for mod in sorted(m.modifiers, key=lambda mod: (_STAGE2_ORDER[mod.kind], mod.key())):
        if mod.kind == SYMMETRIC:
            _mirror(m, tracer, RULE_SYMMETRIC, mod, mod.target)
        elif mod.kind == INVERSE:
            counterpart = mod.counterpart or mod.target
            if counterpart not in m.properties:
                warnings.append(
                    Diagnostic(
                        "undeclared-inverse",
                        "warning",
                        f"inverse property {counterpart} was not declared; created",
                        el_modifier(mod),
                    )
                )
                m.declare_property(counterpart, OBJECT)
            _mirror(m, tracer, RULE_INVERSE, mod, counterpart)
        elif mod.kind == INTERSECTION:
            if not mod.members:
                warnings.append(
                    Diagnostic(
                        "empty-intersection",
                        "warning",
                        f"intersection for {mod.target} lists no members; dropped",
                        el_modifier(mod),
                    )
                )
            for member in mod.members:
                # member == target would be the vacuous C <= C
                if member != mod.target and m.add_subclass(
                    mod.target, member, RULE_INTERSECTION
                ):
                    tracer.record(
                        RULE_INTERSECTION,
                        lambda: (el_subclass(mod.target, member), (el_modifier(mod),)),
                    )
        else:
            pred = mod.target
            names, pairs, reach = _close(
                [(subject, obj) for _, subject, obj in _relations_with(m, pred)],
                bound,
                tracer,
            )
            render = partial(el_relation, pred)
            for u, v in pairs:
                if m.add_relation(pred, names[u], names[v], RULE_TRANSITIVE):
                    tracer.record(
                        RULE_TRANSITIVE,
                        lambda: (
                            render(names[u], names[v]),
                            reach.sources(names, u, v, render),
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
    tracer = Tracer(trace)
    warnings: list[Diagnostic] = []
    progress = _Progress()
    passes = 0

    changed = True
    while changed:
        try:
            # every rule runs; |= does not short-circuit
            changed = _propagate_equivalents(work, tracer)
            changed |= _close_subclass_hierarchy(work, tracer, warnings, bound, progress)
            changed |= _lift_relations(work, tracer, progress)
            changed |= _rewrite_modifiers(work, tracer, warnings, bound)
        except OverflowError:
            raise FixpointOverflow(work.element_count(), bound) from None
        passes += 1
        if bound and work.element_count() > bound:
            raise FixpointOverflow(work.element_count(), bound)

    work.normalized = True
    return NormalizeResult(
        model=work,
        traces=tuple(tracer.traces),
        warnings=tuple(warnings),
        passes=passes,
        tally=dict(tracer.tally),
    )
