"""Normalization to standard form: classes, properties, plain relations.

Two stages are applied per pass, in a fixed order:

* stage 1 (add implied elements): propagate_equivalents,
  close_subclass_hierarchy, lift_relations;
* stage 2 (replace modifier constructs): rewrite_symmetric, rewrite_inverse,
  rewrite_intersection, rewrite_transitive.

The full sequence repeats until a pass leaves the model unchanged, so elements
produced by stage 2 (say, a relation expanded from a symmetric property) still
feed stage-1 rules on the next pass.  Every rule only ever adds elements or
consumes a modifier, so the fixpoint exists; a configurable element budget
guards against pathological blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import closure
from .errors import FixpointOverflow
from .model import (
    ASSERTED,
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
    def __init__(self) -> None:
        self.traces: list[RewriteTrace] = []
        self.tally: dict[str, int] = {rule: 0 for rule in ALL_RULES}

    def emit(self, rule: str, produced: str, sources: tuple[str, ...] = ()) -> None:
        self.traces.append(RewriteTrace(rule, produced, sources))
        self.tally[rule] += 1


@dataclass
class NormalizeResult:
    model: OntologyModel
    traces: tuple[RewriteTrace, ...]
    warnings: tuple[Diagnostic, ...]
    passes: int
    tally: dict[str, int] = field(default_factory=dict)


# -- stage 1 -------------------------------------------------------------------


def _equivalence_groups(m: OntologyModel) -> list[list[str]]:
    uf = UnionFind()
    for a, b in m.equivalences:
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
    return [sorted(g) for _, g in sorted(uf.groups().items())]


def _propagate_equivalents(m: OntologyModel, tracer: Tracer) -> bool:
    changed = False
    for group in _equivalence_groups(m):
        if len(group) < 2:
            continue
        members = set(group)

        # datatype-property holdings: any member's property goes to the whole group
        by_property: dict[str, list[str]] = {}
        for h in m.sorted_holdings():
            if h.holder in members:
                by_property.setdefault(h.property, []).append(h.holder)
        for prop in sorted(by_property):
            source = el_holding(prop, min(by_property[prop]))
            for member in group:
                if m.add_holding(prop, member, RULE_EQUIV_PROPERTY):
                    tracer.emit(RULE_EQUIV_PROPERTY, el_holding(prop, member), (source,))
                    changed = True

        # subject-position relations likewise
        by_pattern: dict[tuple[str, str], list[str]] = {}
        for r in m.sorted_relations():
            if r.subject in members:
                by_pattern.setdefault((r.predicate, r.object), []).append(r.subject)
        for pred, obj in sorted(by_pattern):
            source = el_relation(pred, min(by_pattern[(pred, obj)]), obj)
            for member in group:
                if m.add_relation(pred, member, obj, RULE_EQUIV_RELATION):
                    tracer.emit(
                        RULE_EQUIV_RELATION, el_relation(pred, member, obj), (source,)
                    )
                    changed = True
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

    def has(self, u: int, v: int) -> bool:
        return bool(self.fwd[u] >> v & 1)

    def witness(self, u: int, v: int) -> int | None:
        """Least w other than u and v with (u, w) and (w, v) both pairs, or
        None.  w = u or w = v would cite the derived element itself or a
        self-pair that the subclass closure drops."""
        common = self.fwd[u] & self.bwd[v] & ~(1 << u | 1 << v)
        if not common:
            return None
        return (common & -common).bit_length() - 1


def _close_subclass_hierarchy(
    m: OntologyModel, tracer: Tracer, warnings: list[Diagnostic], bound: int
) -> bool:
    old = {key: axiom.origin for key, axiom in m.subclass_axioms.items()}
    if not old:
        return False
    names = sorted({n for pair in old for n in pair})
    index = {n: i for i, n in enumerate(names)}
    edges = [(index[sub], index[sup]) for sub, sup in old]
    pairs = closure.reachable_pairs(len(names), edges, limit=bound)
    reach = _Reach(len(names), pairs)

    # cycle policy: drop self-axioms, record mutual-subclass groups as equivalent
    cyclic = [u for u in range(len(names)) if reach.has(u, u)]
    if cyclic:
        uf = UnionFind()
        for u in cyclic:
            uf.add(u)
        for u in cyclic:
            for v in cyclic:
                if u < v and reach.has(u, v) and reach.has(v, u):
                    uf.union(u, v)
        for _, group in sorted(uf.groups().items()):
            cycle = sorted(names[u] for u in group)
            if len(cycle) == 1:
                warnings.append(
                    Diagnostic(
                        "self-subclass",
                        "warning",
                        f"self-subclass axiom on {cycle[0]} dropped",
                        el_subclass(cycle[0], cycle[0]),
                    )
                )
                continue
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
                    tracer.emit(
                        RULE_SUBCLASS_CLOSURE,
                        el_equivalence(head, other),
                        (el_subclass(head, other), el_subclass(other, head)),
                    )

    m.subclass_axioms.clear()
    changed = False
    for u, v in pairs:
        if u == v:
            changed = True  # a self-axiom from the input was dropped
            continue
        sub, sup = names[u], names[v]
        origin = old.get((sub, sup))
        if origin is not None:
            m.add_subclass(sub, sup, origin)
            continue
        m.add_subclass(sub, sup, RULE_SUBCLASS_CLOSURE)
        witness = reach.witness(u, v)
        sources = ()
        if witness is not None:
            w = names[witness]
            sources = (el_subclass(sub, w), el_subclass(w, sup))
        tracer.emit(RULE_SUBCLASS_CLOSURE, el_subclass(sub, sup), sources)
        changed = True
    return changed


def _lift_relations(m: OntologyModel, tracer: Tracer) -> bool:
    supers: dict[str, list[str]] = {}
    for axiom in m.sorted_subclass_axioms():
        supers.setdefault(axiom.sub, []).append(axiom.sup)
    changed = False
    for r in m.sorted_relations():
        for sup in supers.get(r.object, ()):
            if m.add_relation(r.predicate, r.subject, sup, RULE_RELATION_LIFT):
                tracer.emit(
                    RULE_RELATION_LIFT,
                    el_relation(r.predicate, r.subject, sup),
                    (el_relation(r.predicate, r.subject, r.object), el_subclass(r.object, sup)),
                )
                changed = True
    return changed


# -- stage 2 -------------------------------------------------------------------


def _rewrite_symmetric(m: OntologyModel, tracer: Tracer) -> bool:
    changed = False
    for mod in m.sorted_modifiers():
        if mod.kind != SYMMETRIC:
            continue
        for r in m.relations_of(mod.target):
            if m.add_relation(mod.target, r.object, r.subject, RULE_SYMMETRIC):
                tracer.emit(
                    RULE_SYMMETRIC,
                    el_relation(mod.target, r.object, r.subject),
                    (el_relation(r.predicate, r.subject, r.object), el_modifier(mod)),
                )
        m.remove_modifier(mod)
        changed = True
    return changed


def _rewrite_inverse(
    m: OntologyModel, tracer: Tracer, warnings: list[Diagnostic]
) -> bool:
    changed = False
    for mod in m.sorted_modifiers():
        if mod.kind != INVERSE:
            continue
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
        for r in m.relations_of(mod.target):
            if m.add_relation(counterpart, r.object, r.subject, RULE_INVERSE):
                tracer.emit(
                    RULE_INVERSE,
                    el_relation(counterpart, r.object, r.subject),
                    (el_relation(r.predicate, r.subject, r.object), el_modifier(mod)),
                )
        m.remove_modifier(mod)
        changed = True
    return changed


def _rewrite_intersection(
    m: OntologyModel, tracer: Tracer, warnings: list[Diagnostic]
) -> bool:
    changed = False
    for mod in m.sorted_modifiers():
        if mod.kind != INTERSECTION:
            continue
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
            if member == mod.target:
                continue  # vacuous C <= C
            if m.add_subclass(mod.target, member, RULE_INTERSECTION):
                tracer.emit(
                    RULE_INTERSECTION,
                    el_subclass(mod.target, member),
                    (el_modifier(mod),),
                )
        m.remove_modifier(mod)
        changed = True
    return changed


def _rewrite_transitive(m: OntologyModel, tracer: Tracer, bound: int) -> bool:
    changed = False
    for mod in m.sorted_modifiers():
        if mod.kind != TRANSITIVE:
            continue
        existing = m.relations_of(mod.target)
        names = sorted({n for r in existing for n in (r.subject, r.object)})
        index = {n: i for i, n in enumerate(names)}
        edges = [(index[r.subject], index[r.object]) for r in existing]
        pairs = closure.reachable_pairs(len(names), edges, limit=bound)
        reach = _Reach(len(names), pairs)
        for u, v in pairs:
            subject, obj = names[u], names[v]
            if not m.add_relation(mod.target, subject, obj, RULE_TRANSITIVE):
                continue
            witness = reach.witness(u, v)
            sources = ()
            if witness is not None:
                w = names[witness]
                sources = (
                    el_relation(mod.target, subject, w),
                    el_relation(mod.target, w, obj),
                )
            tracer.emit(RULE_TRANSITIVE, el_relation(mod.target, subject, obj), sources)
        m.remove_modifier(mod)
        changed = True
    return changed


# -- public single-step operations ----------------------------------------------


def propagate_equivalents(m: OntologyModel, tracer: Tracer | None = None) -> OntologyModel:
    out = m.copy()
    _propagate_equivalents(out, tracer or Tracer())
    return out


def close_subclass_hierarchy(
    m: OntologyModel,
    tracer: Tracer | None = None,
    warnings: list[Diagnostic] | None = None,
) -> OntologyModel:
    out = m.copy()
    _close_subclass_hierarchy(
        out, tracer or Tracer(), warnings if warnings is not None else [], 0
    )
    return out


def lift_relations(m: OntologyModel, tracer: Tracer | None = None) -> OntologyModel:
    out = m.copy()
    _lift_relations(out, tracer or Tracer())
    return out


def rewrite_symmetric(m: OntologyModel, tracer: Tracer | None = None) -> OntologyModel:
    out = m.copy()
    _rewrite_symmetric(out, tracer or Tracer())
    return out


def rewrite_inverse(
    m: OntologyModel,
    tracer: Tracer | None = None,
    warnings: list[Diagnostic] | None = None,
) -> OntologyModel:
    out = m.copy()
    _rewrite_inverse(out, tracer or Tracer(), warnings if warnings is not None else [])
    return out


def rewrite_intersection(
    m: OntologyModel,
    tracer: Tracer | None = None,
    warnings: list[Diagnostic] | None = None,
) -> OntologyModel:
    out = m.copy()
    _rewrite_intersection(
        out, tracer or Tracer(), warnings if warnings is not None else []
    )
    return out


def rewrite_transitive(m: OntologyModel, tracer: Tracer | None = None) -> OntologyModel:
    out = m.copy()
    _rewrite_transitive(out, tracer or Tracer(), 0)
    return out


# -- fixpoint driver -------------------------------------------------------------


def normalize(m: OntologyModel, bound: int = DEFAULT_BOUND) -> NormalizeResult:
    """Run both stages to a joint fixpoint; the result carries no modifiers."""
    work = m.copy()
    work.normalized = False
    tracer = Tracer()
    warnings: list[Diagnostic] = []
    passes = 0

    while True:
        before = work.canonical()
        try:
            _propagate_equivalents(work, tracer)
            _close_subclass_hierarchy(work, tracer, warnings, bound)
            _lift_relations(work, tracer)
            _rewrite_symmetric(work, tracer)
            _rewrite_inverse(work, tracer, warnings)
            _rewrite_intersection(work, tracer, warnings)
            _rewrite_transitive(work, tracer, bound)
        except OverflowError:
            raise FixpointOverflow(work.element_count(), bound) from None
        passes += 1
        if bound and work.element_count() > bound:
            raise FixpointOverflow(work.element_count(), bound)
        if work.canonical() == before:
            break

    work.normalized = True
    return NormalizeResult(
        model=work,
        traces=tuple(tracer.traces),
        warnings=tuple(warnings),
        passes=passes,
        tally=dict(tracer.tally),
    )
