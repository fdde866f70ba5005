"""Seeded random models and deliberately naive oracles.

The oracles re-derive results from first principles (repeat-until-fixed pair
composition, naive set merging, direct comprehension over model collections)
so they share no code with the production implementations they check.
reference_normalize is the exception and says what it shares.
reference_validate_model is the validator as it was before it filtered
elements by lookups: it sorts and renders every element.
"""

import random

from fuzzonto.model import (
    DATATYPE,
    Diagnostic,
    INTERSECTION,
    INVERSE,
    OBJECT,
    SYMMETRIC,
    TRANSITIVE,
    OntologyModel,
    RawModifier,
)
from fuzzonto.normalize import (
    DEFAULT_BOUND,
    RULE_EQUIV_PROPERTY,
    RULE_EQUIV_RELATION,
    RULE_RELATION_LIFT,
    Tracer,
    _close_subclass_hierarchy,
    _equivalence_groups,
    _Progress,
    _rewrite_modifiers,
    el_holding,
    el_relation,
    el_subclass,
)

CLASS_POOL = [f"C{i}" for i in range(10)]
DT_POOL = ["p0", "p1", "p2", "p3"]
REL_POOL = ["r0", "r1", "r2", "r3"]


def random_model(seed: int) -> OntologyModel:
    """Model with <= 10 classes, <= 4 datatype properties, <= 4 predicates.

    Subclass edges may form cycles and self-loops on purpose; modifiers of
    every kind appear with moderate probability.
    """
    rng = random.Random(seed)
    m = OntologyModel()

    classes = CLASS_POOL[: rng.randint(2, 10)]
    for name in classes:
        m.touch_class(name)
    dt_props = DT_POOL[: rng.randint(0, 4)]
    for name in dt_props:
        m.declare_property(name, DATATYPE)
    predicates = REL_POOL[: rng.randint(0, 4)]
    for name in predicates:
        m.declare_property(name, OBJECT)

    for prop in dt_props:
        for holder in rng.sample(classes, rng.randint(0, min(4, len(classes)))):
            m.add_holding(prop, holder)
    for pred in predicates:
        for _ in range(rng.randint(0, 4)):
            m.add_relation(pred, rng.choice(classes), rng.choice(classes))
    for _ in range(rng.randint(0, 6)):
        m.add_subclass(rng.choice(classes), rng.choice(classes))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(classes, 2)
        m.add_equivalence(a, b)

    for pred in predicates:
        roll = rng.random()
        if roll < 0.25:
            m.add_modifier(RawModifier(SYMMETRIC, pred))
        elif roll < 0.50:
            m.add_modifier(RawModifier(TRANSITIVE, pred))
        elif roll < 0.65:
            m.add_modifier(
                RawModifier(INVERSE, pred, counterpart=rng.choice(predicates))
            )
    if rng.random() < 0.40:
        target = rng.choice(classes)
        members = tuple(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        m.add_modifier(RawModifier(INTERSECTION, target, members=members))
    return m


def random_graph(seed: int, max_nodes: int = 12):
    rng = random.Random(seed)
    n = rng.randint(0, max_nodes)
    edge_count = rng.randint(0, 2 * n) if n else 0
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
    return n, edges


def brute_reachable(edges) -> set:
    """Pairs (u, w) connected by a path of length >= 1: compose until fixed."""
    reach = set(edges)
    while True:
        extra = {
            (a, d) for (a, b) in reach for (c, d) in reach if b == c
        } - reach
        if not extra:
            return reach
        reach |= extra


def brute_groups(names, pairs) -> dict:
    """Merge overlapping pair-sets naively; returns min-member -> frozenset."""
    sets = [{a, b} for a, b in pairs] + [{n} for n in names]
    merged = True
    while merged:
        merged = False
        out: list[set] = []
        for current in sets:
            for existing in out:
                if existing & current:
                    existing |= current
                    merged = True
                    break
            else:
                out.append(set(current))
        sets = out
    return {min(s): frozenset(s) for s in sets}


def brute_table(m: OntologyModel, asserted_only: bool = False) -> dict:
    """Denominators and determiner sets per key, by direct enumeration.

    Keys: ("property", name), ("part_of", class), ("relation", pred, class);
    values: (n over group minima, frozenset of determiners widened to their
    whole equivalence groups).  With asserted_only, derived elements neither
    determine a key nor make one exist.
    """
    groups = brute_groups(m.classes.keys(), m.equivalences)

    def group_of(name):
        for members in groups.values():
            if name in members:
                return members
        return frozenset([name])

    def entry(determiners):
        widened = frozenset().union(*(group_of(c) for c in determiners))
        return len({min(group_of(c)) for c in determiners}), widened

    def kept(elements):
        return [
            key
            for key, origin in elements.items()
            if not asserted_only or origin == "asserted"
        ]

    table = {}
    holders: dict = {}
    for prop, holder in kept(m.holdings):
        holders.setdefault(prop, set()).add(holder)
    for prop, ds in holders.items():
        table[("property", prop)] = entry(ds)

    subs: dict = {}
    for sub, sup in kept(m.subclass_axioms):
        subs.setdefault(sup, set()).add(sub)
    for sup, ds in subs.items():
        table[("part_of", sup)] = entry(ds)

    rels: dict = {}
    for pred, subject, obj in kept(m.relations):
        rels.setdefault((pred, obj), set()).add(subject)
    for (pred, obj), ds in rels.items():
        table[("relation", pred, obj)] = entry(ds)
    return table


def brute_witness(u: int, v: int, pairset: set) -> int | None:
    """Least intermediate w (not u, not v) with (u, w) and (w, v) in pairset,
    by scanning every pair."""
    for w in sorted(p[1] for p in pairset if p[0] == u):
        if w not in (u, v) and (w, v) in pairset:
            return w
    return None


def intersection_model(seed: int) -> OntologyModel:
    """random_model(seed) plus 2-4 intersection definitions, so that later
    passes meet subclass axioms which older relations were not lifted over."""
    m = random_model(seed)
    rng = random.Random(f"intersection/{seed}")
    classes = sorted(m.classes)
    for _ in range(rng.randint(2, 4)):
        target = rng.choice(classes)
        members = tuple(rng.sample(classes, rng.randint(1, min(3, len(classes)))))
        m.add_modifier(RawModifier(INTERSECTION, target, members=members))
    return m


def _reference_propagate(m: OntologyModel, tracer: Tracer) -> None:
    """Equivalence copies by a sorted rescan of the whole model per group."""
    for group in _equivalence_groups(m):
        members = set(group)
        by_property: dict = {}
        for prop, holder in sorted(m.holdings):
            if holder in members:
                by_property.setdefault(prop, []).append(holder)
        for prop in sorted(by_property):
            source = el_holding(prop, min(by_property[prop]))
            for member in group:
                if m.add_holding(prop, member, RULE_EQUIV_PROPERTY):
                    tracer.record(
                        RULE_EQUIV_PROPERTY,
                        [(prop, member)],
                        lambda key: (el_holding(*key), (source,)),
                    )
        by_pattern: dict = {}
        for pred, subject, obj in sorted(m.relations):
            if subject in members:
                by_pattern.setdefault((pred, obj), []).append(subject)
        for pred, obj in sorted(by_pattern):
            source = el_relation(pred, min(by_pattern[(pred, obj)]), obj)
            for member in group:
                if m.add_relation(pred, member, obj, RULE_EQUIV_RELATION):
                    tracer.record(
                        RULE_EQUIV_RELATION,
                        [(pred, member, obj)],
                        lambda key: (el_relation(*key), (source,)),
                    )


def _reference_lift(m: OntologyModel, tracer: Tracer) -> None:
    """Lift every relation over every axiom, in one sorted sweep."""
    supers: dict = {}
    for sub, sup in sorted(m.subclass_axioms):
        supers.setdefault(sub, []).append(sup)
    for pred, subject, obj in sorted(m.relations):
        for sup in supers.get(obj, ()):
            if m.add_relation(pred, subject, sup, RULE_RELATION_LIFT):
                tracer.record(
                    RULE_RELATION_LIFT,
                    [(pred, subject, sup)],
                    lambda key: (
                        el_relation(*key),
                        (el_relation(pred, subject, obj), el_subclass(obj, sup)),
                    ),
                )


def reference_normalize(m: OntologyModel, bound: int = DEFAULT_BOUND):
    """The fixpoint evaluated naively: every pass rescans for equivalence
    copies, reruns the subclass closure from scratch, re-lifts every relation
    and compares canonical() before and after to decide whether to go on.

    Unlike the oracles above it shares the subclass closure and the stage-2
    modifier rewrite with the production code; what it checks is the delta-driven
    driver, lift and change detection.  Because the closure starts fresh on
    every pass, its cycle warnings repeat once per pass.

    Returns (model, traces, warnings, passes, tally).
    """
    work = m.copy()
    work.normalized = False
    tracer = Tracer()
    warnings: list = []
    passes = 0
    while True:
        before = work.canonical()
        _reference_propagate(work, tracer)
        _close_subclass_hierarchy(work, tracer, warnings, bound, _Progress())
        _reference_lift(work, tracer)
        _rewrite_modifiers(work, tracer, warnings, bound)
        passes += 1
        if work.canonical() == before:
            break
    work.normalized = True
    return work, tuple(tracer.traces), warnings, passes, tracer.tally


def undeclared_model(seed: int) -> OntologyModel:
    """random_model(seed) with undeclared classes and properties injected
    into holdings, relations, subclass axioms, equivalences and modifiers,
    and properties left unused."""
    rng = random.Random(f"undeclared/{seed}")
    m = random_model(seed)
    classes = sorted(m.classes)
    ghosts = ["G0", "G1", "Z9"]
    ghost_props = ["q0", "q1", "r9"]
    anyclass = classes + ghosts
    for _ in range(rng.randint(0, 4)):
        m.add_holding(rng.choice(ghost_props + DT_POOL), rng.choice(anyclass))
    for _ in range(rng.randint(0, 4)):
        m.add_relation(
            rng.choice(ghost_props + REL_POOL), rng.choice(anyclass), rng.choice(anyclass)
        )
    for _ in range(rng.randint(0, 3)):
        m.add_subclass(rng.choice(anyclass), rng.choice(anyclass))
    if rng.random() < 0.5:
        m.add_equivalence(rng.choice(anyclass), rng.choice(ghosts))
    if rng.random() < 0.3:
        m.equivalences.add((classes[0], classes[0]))  # a self-pair from outside
    if rng.random() < 0.5:
        m.add_modifier(RawModifier(INVERSE, rng.choice(ghost_props), counterpart="q9"))
    if rng.random() < 0.5:
        m.add_modifier(RawModifier(INTERSECTION, rng.choice(anyclass), members=("G1",)))
    for name in rng.sample(["u0", "u1", "u2"], rng.randint(0, 3)):
        m.declare_property(name, rng.choice((DATATYPE, OBJECT)))
    m.normalized = rng.random() < 0.2
    return m


def reference_validate_model(model: OntologyModel) -> list:
    """Validation diagnostics, checking every element in sorted order."""
    out: list = []

    def check_class(name: str, location: str) -> None:
        if name not in model.classes:
            out.append(
                Diagnostic(
                    "undeclared-class",
                    "error",
                    f"class {name} referenced but not present",
                    location,
                )
            )

    def check_property(name: str, location: str) -> None:
        if name not in model.properties:
            out.append(
                Diagnostic(
                    "undeclared-property",
                    "warning",
                    f"property {name} used but not declared",
                    location,
                )
            )

    for prop, holder in sorted(model.holdings):
        check_class(holder, f"holding {prop}/{holder}")
        check_property(prop, f"holding {prop}/{holder}")
    for pred, subject, obj in sorted(model.relations):
        where = f"relation {pred}({subject}, {obj})"
        check_class(subject, where)
        check_class(obj, where)
        check_property(pred, where)
    for sub, sup in sorted(model.subclass_axioms):
        where = f"subclass {sub} -> {sup}"
        check_class(sub, where)
        check_class(sup, where)
    for a, b in sorted(model.equivalences):
        where = f"equivalence ({a}, {b})"
        check_class(a, where)
        check_class(b, where)
        if a == b:
            out.append(
                Diagnostic(
                    "self-equivalence", "warning", f"self-equivalence dropped for {a}", where
                )
            )

    modifier_props: set = set()
    for m in model.sorted_modifiers():
        where = f"{m.kind} modifier on {m.target}"
        if m.kind == INTERSECTION:
            check_class(m.target, where)
            for member in m.members:
                check_class(member, where)
        else:
            check_property(m.target, where)
            modifier_props.add(m.target)
        if m.kind == INVERSE and m.counterpart is not None:
            modifier_props.add(m.counterpart)
            if m.counterpart not in model.properties:
                out.append(
                    Diagnostic(
                        "undeclared-inverse",
                        "warning",
                        f"inverseOf names undeclared property {m.counterpart}",
                        where,
                    )
                )

    used = {prop for prop, _ in model.holdings}
    used |= {pred for pred, _, _ in model.relations}
    used |= modifier_props
    for name in sorted(model.properties):
        if name not in used:
            out.append(
                Diagnostic(
                    "property-unused",
                    "warning",
                    f"property {name} has no domain/range assertions",
                    name,
                )
            )

    if model.normalized and model.modifiers:
        out.append(
            Diagnostic(
                "modifiers-in-normalized",
                "error",
                "normalized model still carries raw modifiers",
            )
        )
    return out
