"""Seeded random models and deliberately naive oracles.

The oracles re-derive results from first principles (repeat-until-fixed pair
composition, naive set merging, direct comprehension over model collections)
so they share no code with the production implementations they check.
reference_normalize is the exception and says what it shares.  RULES
writes down once what normalize may derive, as OWL 2 RL rules, and saturate
evaluates the table naively; neither calls anything in fuzzonto.normalize or
fuzzonto.closure.
reference_validate_model is the validator as it was before it filtered
elements by lookups: it sorts and renders every element.
reference_parse_rdfxml is the RDF/XML reader as it was when it built an
ElementTree and walked it; random_rdfxml writes documents for it.
add_holding, add_relation and add_subclass insert one element into a model
that a test builds by hand.

Models define no equality.  A test compares two models by their emit_json
bytes, by element_keys where origins must not count, and by model_state
where it checks the JSON writer or reader itself, since comparing a lossy
writer's bytes with themselves would pass.  traces_to_obj is the generic
encoder's input for traces, the oracle of the fixed-shape trace writers, and
scan_traces finds a normalize run's traces by scanning the state before each
logged batch.
"""

import random
import xml.etree.ElementTree as ET

from fuzzonto import closure
from fuzzonto.errors import DuplicateIdentifier, MalformedDocument, UnsupportedConstruct
from fuzzonto.ingest import OWL_NS, RDF_NS, RDFS_NS

from fuzzonto.model import (
    ASSERTED,
    COLLECTIONS,
    DATATYPE,
    ELEMENT_KINDS,
    Diagnostic,
    INTERSECTION,
    INVERSE,
    OBJECT,
    SYMMETRIC,
    TRANSITIVE,
    OntologyModel,
    RawModifier,
    el_equivalence,
    el_holding,
    el_modifier,
    el_relation,
    el_subclass,
)
from fuzzonto.normalize import DEFAULT_BOUND, _close_subclass_hierarchy, _rewrite_modifiers, _Run


def _insert(elements: dict, key: tuple, origin: str) -> bool:
    """Insert key with origin unless it is present, since the first
    derivation wins, and say whether it went in."""
    if key in elements:
        return False
    elements[key] = origin
    return True


def add_holding(m: OntologyModel, prop: str, holder: str, origin: str = ASSERTED) -> bool:
    return _insert(m.holdings, (prop, holder), origin)


def add_relation(
    m: OntologyModel, pred: str, subject: str, obj: str, origin: str = ASSERTED
) -> bool:
    return _insert(m.relations, (pred, subject, obj), origin)


def add_subclass(m: OntologyModel, sub: str, sup: str, origin: str = ASSERTED) -> bool:
    return _insert(m.subclass_axioms, (sub, sup), origin)


def element_keys(m: OntologyModel) -> dict:
    """m without origins and the normalized flag: classes with their IRIs,
    properties with their kinds, and every other collection's keys, each as
    a new set."""
    keys = {attr: set(getattr(m, attr)) for attr in COLLECTIONS.values()}
    keys["classes"] = set(m.classes.items())
    keys["properties"] = set(m.properties.items())
    return keys


def model_state(m: OntologyModel) -> dict:
    """Every collection of m, copied, with the origins, and the normalized
    flag."""
    state = {attr: getattr(m, attr).copy() for attr in COLLECTIONS.values()}
    state["normalized"] = m.normalized
    return state


def closed_pairs(reach) -> list:
    """The (u, v) pairs of a closure.Reachability, sorted, read from its rows."""
    return [(u, v) for u, row in enumerate(reach.rows) for v in closure.bits(row)]


def traces_to_obj(traces) -> list[dict]:
    return [
        {"rule": t.rule, "produced": t.produced, "sources": list(t.sources)}
        for t in traces
    ]


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
            add_holding(m, prop, holder)
    for pred in predicates:
        for _ in range(rng.randint(0, 4)):
            add_relation(m, pred, rng.choice(classes), rng.choice(classes))
    for _ in range(rng.randint(0, 6)):
        add_subclass(m, rng.choice(classes), rng.choice(classes))
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


def scan_traces(result) -> list[tuple]:
    """The (rule, produced, sources) traces of a normalize result, found
    batch by batch in its log by plain scans of the state before the batch:
    the prefixes of the result's collections that precede it.  Closures are
    recomputed with brute_reachable and cite brute_witness."""
    m = result.model
    holdings, relations, axioms = list(m.holdings), list(m.relations), list(m.subclass_axioms)
    found = []
    for rule, start, end, present, extra in result.log:
        if rule in ("equiv-property-copy", "equiv-relation-copy"):
            if rule == "equiv-property-copy":
                elements, render = holdings, el_holding
            else:
                elements, render = relations, el_relation
            batch = sorted(elements[start:end], key=lambda key: (key[::2], key[1]))
            for key in batch:
                held = min(
                    k[1] for k in elements[:start] if k[::2] == key[::2] and k[1] in extra
                )
                found.append((rule, render(*key), (render(key[0], held, *key[2:]),)))
        elif rule == "subclass-closure" and extra:
            for a, b in extra:
                source = (el_subclass(a, b), el_subclass(b, a))
                found.append((rule, el_equivalence(a, b), source))
        elif rule in ("subclass-closure", "transitive-close"):
            if rule == "subclass-closure":
                before, render = axioms[:start], el_subclass
            else:
                pred = extra.target
                before = [key[1:] for key in relations[:start] if key[0] == pred]

                def render(a, b, pred=pred):
                    return el_relation(pred, a, b)

            pairs = brute_reachable(before)
            for a, b in sorted(pairs - set(before)):
                if a == b and rule == "subclass-closure":
                    continue  # the subclass closure drops self-pairs
                w = brute_witness(a, b, pairs)
                sources = () if w is None else (render(a, w), render(w, b))
                found.append((rule, render(a, b), sources))
        elif rule == "relation-lift":
            present_axioms = set(axioms[:present])
            batch = []
            for pred, subject, sup in relations[start:end]:
                producer = min(
                    o
                    for p, s, o in relations[:start]
                    if (p, s) == (pred, subject) and (o, sup) in present_axioms
                )
                batch.append((pred, subject, producer, sup))
            for pred, subject, producer, sup in sorted(batch):
                source = (el_relation(pred, subject, producer), el_subclass(producer, sup))
                found.append((rule, el_relation(pred, subject, sup), source))
        elif rule == "intersection-to-subclass":
            for key in axioms[start:end]:
                found.append((rule, el_subclass(*key), (el_modifier(extra),)))
        else:  # mirroring: the batch holds counterpart(o, s) for each target(s, o)
            for key in sorted(relations[start:end], key=lambda key: (key[2], key[1])):
                source = (extra.target, key[2], key[1])
                assert source in relations[:start]
                found.append((rule, el_relation(*key), (el_relation(*source), el_modifier(extra))))
    return found


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


# the empty name and 17 names that XML, JSON or the RDF/XML writer must
# escape, keep whole or tell apart from a reference
AWKWARD_NAMES = [
    "",
    "a b",
    "a#b",
    "a&b",
    "a<b",
    "a>b",
    'a"b',
    "a'b",
    "a\tb",
    "a\nb",
    "a\rb",
    "a\u00a0b",
    "\u00c4rger",
    "\u65e5\u672c",
    "1st",
    "a\\b",
    "a/b",
    "a\u2028b",
]

# names that model JSON carries and XML 1.0 cannot, even as a character
# reference: a C0 control other than tab, newline and carriage return, and
# the two noncharacters at the end of the Basic Multilingual Plane
UNWRITABLE_NAMES = ["a\x01b", "a\ufffeb", "a\uffffb"]


def awkward_model(seed: int, names=AWKWARD_NAMES) -> OntologyModel:
    """intersection_model(seed) with every class renamed to one of names,
    AWKWARD_NAMES unless given, in a seeded order, and every property to its
    own name followed by one; so no class and property share a name."""
    source = intersection_model(seed)
    rng = random.Random(f"awkward/{seed}")
    renamed = dict(zip(sorted(source.classes), rng.sample(names, len(source.classes))))
    renamed.update((name, name + rng.choice(names)) for name in sorted(_property_names(source)))
    return renamed_model(source, renamed)


def _property_names(m: OntologyModel) -> set:
    """Every name m declares or uses as a property."""
    props = set(m.properties) | {key[0] for key in (*m.holdings, *m.relations)}
    for mod in m.modifiers:
        if mod.kind != INTERSECTION:
            props.update(filter(None, (mod.target, mod.counterpart)))
    return props


def clash_model(seed: int) -> OntologyModel:
    """random_model(seed) with its properties renamed to distinct names of
    CLASS_POOL, so that a property may share its name with a class of the
    model, or with one that the model lacks."""
    source = random_model(seed)
    rng = random.Random(f"clash/{seed}")
    props = sorted(_property_names(source))
    renamed = {name: name for name in source.classes}
    renamed.update(zip(props, rng.sample(CLASS_POOL, len(props))))
    return renamed_model(source, renamed)


def renamed_model(source: OntologyModel, renamed: dict) -> OntologyModel:
    """source with every class and property name looked up in renamed."""
    m = OntologyModel()
    for name, iri in source.classes.items():
        m.touch_class(renamed[name], iri)
    for name, kind in source.properties.items():
        m.declare_property(renamed[name], kind)
    for kind in ELEMENT_KINDS:
        elements = getattr(m, kind.attr)
        for key, origin in getattr(source, kind.attr).items():
            elements[tuple(renamed[name] for name in key)] = origin
    for a, b in source.equivalences:
        m.add_equivalence(renamed[a], renamed[b])
    for mod in source.modifiers:
        m.add_modifier(
            RawModifier(
                mod.kind,
                renamed[mod.target],
                mod.counterpart and renamed[mod.counterpart],
                tuple(renamed[name] for name in mod.members),
            )
        )
    return m


def _reference_propagate(m: OntologyModel, run: _Run) -> None:
    """Equivalence copies by a sorted rescan of the whole model per group."""
    for members in sorted(brute_groups((), m.equivalences).values(), key=min):
        group = sorted(members)
        for prop in sorted({prop for prop, holder in m.holdings if holder in members}):
            for member in group:
                added = add_holding(m, prop, member, "equiv-property-copy")
                run.tally["equiv-property-copy"] += added
        patterns = {(pred, obj) for pred, subject, obj in m.relations if subject in members}
        for pred, obj in sorted(patterns):
            for member in group:
                added = add_relation(m, pred, member, obj, "equiv-relation-copy")
                run.tally["equiv-relation-copy"] += added


def _reference_lift(m: OntologyModel, run: _Run) -> None:
    """Lift every relation over every axiom, in one sorted sweep."""
    supers: dict = {}
    for sub, sup in sorted(m.subclass_axioms):
        supers.setdefault(sub, []).append(sup)
    for pred, subject, obj in sorted(m.relations):
        for sup in supers.get(obj, ()):
            run.tally["relation-lift"] += add_relation(m, pred, subject, sup, "relation-lift")


def reference_normalize(m: OntologyModel, bound: int = DEFAULT_BOUND):
    """The fixpoint evaluated naively: every pass rescans for equivalence
    copies, reruns the subclass closure from scratch, re-lifts every relation
    and compares element_keys before and after to decide whether to go on.

    Unlike the oracles above it shares the subclass closure and the stage-2
    modifier rewrite with the production code; what it checks is the delta-driven
    driver, lift and change detection.  Because the closure starts fresh on
    every pass, its cycle warnings repeat once per pass.

    Returns (model, warnings, passes, tally).
    """
    work = m.copy()
    work.normalized = False
    run = _Run(work, bound)
    passes = 0
    while True:
        before = element_keys(work)
        _reference_propagate(work, run)
        run.closed, run.warned = None, set()  # the closure starts fresh
        _close_subclass_hierarchy(work, run)
        _reference_lift(work, run)
        rewrote = passes == 0 and _rewrite_modifiers(work, run)  # they left work with _Run
        passes += 1
        if element_keys(work) == before and not rewrote:
            break
    work.normalized = True
    return work, run.warnings, passes, run.tally


# -- the rule table: what normalize may derive, as OWL 2 RL states it ---------------

# Each rule is (name, premise patterns, conclusion pattern).  A pattern is a
# fact's kind followed by variable names; a fact is a kind followed by names:
# ("holding", p, c), ("relation", r, s, o), ("subclass", sub, sup),
# ("equivalence", a, b), ("symmetric", p), ("transitive", p),
# ("inverse", p, q) and one ("intersection", c, member) per member.  The
# rules named scm-* and prp-* are those of W3C OWL 2 Profiles, section 4.3,
# tables 5 and 9; equivalence-sym states that owl:equivalentClass is
# symmetric, and the last three are normalize's own.
RULES = (
    ("scm-sco", (("subclass", "a", "b"), ("subclass", "b", "c")), ("subclass", "a", "c")),
    ("scm-eqc2", (("subclass", "a", "b"), ("subclass", "b", "a")), ("equivalence", "a", "b")),
    ("equivalence-sym", (("equivalence", "a", "b"),), ("equivalence", "b", "a")),
    ("prp-symp", (("symmetric", "p"), ("relation", "p", "x", "y")), ("relation", "p", "y", "x")),
    (
        "prp-inv1",
        (("inverse", "p", "q"), ("relation", "p", "x", "y")),
        ("relation", "q", "y", "x"),
    ),
    (
        "prp-inv2",
        (("inverse", "p", "q"), ("relation", "q", "x", "y")),
        ("relation", "p", "y", "x"),
    ),
    (
        "prp-trp",
        (("transitive", "p"), ("relation", "p", "x", "y"), ("relation", "p", "y", "z")),
        ("relation", "p", "x", "z"),
    ),
    ("scm-int", (("intersection", "c", "m"),), ("subclass", "c", "m")),
    (
        "relation-lift",
        (("relation", "r", "s", "o"), ("subclass", "o", "sup")),
        ("relation", "r", "s", "sup"),
    ),
    (
        "holding-copy",
        (("holding", "p", "a"), ("equivalence", "a", "b")),
        ("holding", "p", "b"),
    ),
    (
        "subject-copy",
        (("relation", "r", "a", "o"), ("equivalence", "a", "b")),
        ("relation", "r", "b", "o"),
    ),
)


def modifier_facts(mod: RawModifier) -> set:
    """One modifier's facts; an intersection gives one per member."""
    if mod.kind == INVERSE:
        return {(INVERSE, mod.target, mod.counterpart or mod.target)}
    if mod.kind == INTERSECTION:
        return {(INTERSECTION, mod.target, member) for member in mod.members}
    return {(mod.kind, mod.target)}


def model_facts(m: OntologyModel) -> set:
    """m's elements and modifiers as facts; classes and properties are none."""
    facts = {("holding", *key) for key in m.holdings}
    facts |= {("relation", *key) for key in m.relations}
    facts |= {("subclass", *key) for key in m.subclass_axioms}
    facts |= {("equivalence", *pair) for pair in m.equivalences}
    return facts.union(*map(modifier_facts, m.modifiers))


def _bindings(premises, binding: dict, index: dict):
    """Every extension of binding that matches all premises to facts.  index
    maps (kind, arity) and (kind, arity, position, name) to the facts that
    have them; a premise scans the shortest list its bound names allow."""
    if not premises:
        yield binding
        return
    kind, *names = premises[0]
    arity = len(names)
    candidates = index.get((kind, arity), ())
    for position, name in enumerate(names):
        if name in binding:
            narrowed = index.get((kind, arity, position, binding[name]), ())
            if len(narrowed) < len(candidates):
                candidates = narrowed
    for fact in candidates:
        extended = dict(binding)
        if all(extended.setdefault(name, value) == value for name, value in zip(names, fact[1:])):
            yield from _bindings(premises[1:], extended, index)


def rule_step(facts: set) -> dict:
    """Each rule's conclusions over facts that facts does not hold yet."""
    index: dict = {}
    for fact in facts:
        arity = len(fact) - 1
        index.setdefault((fact[0], arity), []).append(fact)
        for position, value in enumerate(fact[1:]):
            index.setdefault((fact[0], arity, position, value), []).append(fact)
    found = {}
    for name, premises, (kind, *names) in RULES:
        derived = {(kind, *(b[n] for n in names)) for b in _bindings(premises, {}, index)}
        found[name] = derived - facts
    return found


def saturate(facts: set) -> set:
    """The least superset of facts that every rule of RULES leaves unchanged:
    every rule applied to every fact, round after round, until a round finds
    nothing new."""
    facts = set(facts)
    while True:
        new = set().union(*rule_step(facts).values())
        if not new:
            return facts
        facts |= new


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
        add_holding(m, rng.choice(ghost_props + DT_POOL), rng.choice(anyclass))
    for _ in range(rng.randint(0, 4)):
        add_relation(
            m, rng.choice(ghost_props + REL_POOL), rng.choice(anyclass), rng.choice(anyclass)
        )
    for _ in range(rng.randint(0, 3)):
        add_subclass(m, rng.choice(anyclass), rng.choice(anyclass))
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

    kinds: dict = {}  # property name -> the kinds its declaration and uses give it
    for name, kind in model.properties.items():
        kinds.setdefault(name, set()).add(kind)
    for prop, _ in model.holdings:
        kinds.setdefault(prop, set()).add(DATATYPE)
    for pred, _, _ in model.relations:
        kinds.setdefault(pred, set()).add(OBJECT)
    for m in model.modifiers:
        if m.kind != INTERSECTION:
            kinds.setdefault(m.target, set()).add(OBJECT)
        if m.kind == INVERSE and m.counterpart is not None:
            kinds.setdefault(m.counterpart, set()).add(OBJECT)
    for name in sorted(kinds):
        if {DATATYPE, OBJECT} <= kinds[name]:
            out.append(
                Diagnostic(
                    "property-kind-conflict",
                    "error",
                    f"property {name} used both as datatype and as object",
                    name,
                )
            )
    for name in sorted(model.classes.keys() & kinds.keys()):
        out.append(
            Diagnostic(
                "class-property-conflict", "error", f"{name} is both a class and a property", name
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


# -- the RDF/XML reader over an ElementTree ---------------------------------------


def reference_parse_rdfxml(data, strict: bool = False) -> OntologyModel:
    """The model, warnings and errors of the RDF/XML reader that parsed the
    whole document into an ElementTree before it walked the tree."""
    return _ReferenceRdfXmlParser(strict).parse(data)


def _split_tag(tag: str) -> tuple[str, str]:
    if tag.startswith("{"):
        ns, _, local = tag[1:].partition("}")
        return ns, local
    return "", tag


def _ref_name(value: str) -> tuple[str, str | None]:
    """Local name and optional full IRI for an rdf:about/rdf:resource value."""
    if value.startswith("#"):
        return value[1:], None
    if "#" in value:
        return value.rsplit("#", 1)[1], value
    if "/" in value:
        return value.rsplit("/", 1)[1], value
    return value, None


class _ReferenceRdfXmlParser:
    def __init__(self, strict: bool):
        self.strict = strict
        self.model = OntologyModel()
        self.warnings: list[Diagnostic] = []
        self.declared: dict[str, str] = {}  # name -> class | datatype | object

    # -- helpers ----------------------------------------------------------

    def _warn(self, code: str, message: str, location: str | None = None) -> None:
        self.warnings.append(Diagnostic(code, "warning", message, location))

    def _unsupported(self, what: str, location: str | None = None) -> None:
        if self.strict:
            raise UnsupportedConstruct(f"{what}" + (f" ({location})" if location else ""))
        self._warn("unsupported-construct", f"{what} skipped", location)

    def _declare(self, name: str, kind: str, location: str) -> None:
        existing = self.declared.get(name)
        if existing is not None and existing != kind:
            raise DuplicateIdentifier(
                f"{name!r} declared both as {existing} and as {kind} ({location})"
            )
        self.declared[name] = kind
        if kind == "class":
            self.model.touch_class(name)
        else:
            self.model.declare_property(name, kind)

    def _element_name(self, el, what: str) -> str | None:
        ident = el.get(f"{{{RDF_NS}}}ID")
        if ident is not None:
            return ident
        about = el.get(f"{{{RDF_NS}}}about")
        if about is not None:
            name, iri = _ref_name(about)
            if iri and what == "class":
                self.model.touch_class(name, iri)
            return name
        self._unsupported(f"anonymous {what}")
        return None

    def _resource(self, el) -> tuple[str, str | None] | None:
        value = el.get(f"{{{RDF_NS}}}resource")
        if value is None:
            return None
        return _ref_name(value)

    def _class_target(self, el, location: str) -> str | None:
        """Class named by rdf:resource or by a nested owl:Class child."""
        res = self._resource(el)
        if res is not None:
            name, iri = res
            self.model.touch_class(name, iri)
            return name
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "Class"):
                name = self._element_name(child, "class")
                if name is not None:
                    self.model.touch_class(name)
                    return name
            else:
                self._unsupported(f"nested {local}", location)
                return None
        self._unsupported("empty class reference", location)
        return None

    # -- walk ---------------------------------------------------------------

    def parse(self, data) -> OntologyModel:
        if isinstance(data, str):
            data = data.encode("utf-8")
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise MalformedDocument(f"XML syntax error: {exc}") from exc
        ns, local = _split_tag(root.tag)
        if (ns, local) != (RDF_NS, "RDF"):
            raise MalformedDocument(f"root element must be rdf:RDF, got {local!r}")

        for el in root:
            ns, local = _split_tag(el.tag)
            if (ns, local) == (OWL_NS, "Class"):
                self._parse_class(el)
            elif (ns, local) == (OWL_NS, "ObjectProperty"):
                self._parse_property(el, OBJECT)
            elif (ns, local) == (OWL_NS, "DatatypeProperty"):
                self._parse_property(el, DATATYPE)
            elif (ns, local) == (OWL_NS, "SymmetricProperty"):
                self._parse_property(el, OBJECT, modifier_kind=SYMMETRIC)
            elif (ns, local) == (OWL_NS, "TransitiveProperty"):
                self._parse_property(el, OBJECT, modifier_kind=TRANSITIVE)
            elif (ns, local) == (OWL_NS, "Ontology"):
                self._parse_ontology_header(el)
            else:
                self._unsupported(f"top-level element {local}")

        model = self.model
        model.parse_warnings = tuple(self.warnings)
        return model

    def _parse_ontology_header(self, el) -> None:
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "imports"):
                self._warn("imports-ignored", "owl:imports is ignored", "owl:Ontology")
            else:
                self._unsupported(f"ontology header element {local}", "owl:Ontology")

    def _parse_class(self, el) -> None:
        name = self._element_name(el, "class")
        if name is None:
            return
        location = f"owl:Class {name}"
        self._declare(name, "class", location)

        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (RDFS_NS, "subClassOf"):
                target = self._class_target(child, location)
                if target is not None:
                    add_subclass(self.model, name, target, ASSERTED)
            elif (ns, local) == (OWL_NS, "equivalentClass"):
                target = self._class_target(child, location)
                if target is None:
                    continue
                if not self.model.add_equivalence(name, target) and name == target:
                    self._warn(
                        "self-equivalence",
                        f"self-equivalence dropped for {name}",
                        location,
                    )
            elif (ns, local) == (OWL_NS, "intersectionOf"):
                self._parse_intersection(child, name, location)
            elif (ns, local) == (RDF_NS, "type"):
                pass
            elif ns in (RDF_NS, RDFS_NS, OWL_NS):
                self._unsupported(f"class element {local}", location)
            else:
                self._parse_nested_relation(child, name, local, location)

    def _parse_intersection(self, el, name: str, location: str) -> None:
        if el.get(f"{{{RDF_NS}}}parseType") != "Collection":
            self._unsupported("intersectionOf without parseType Collection", location)
            return
        members = []
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (OWL_NS, "Class"):
                member = self._element_name(child, "class")
                if member is not None:
                    self.model.touch_class(member)
                    members.append(member)
            else:
                self._unsupported(f"intersection member {local}", location)
        self.model.add_modifier(
            RawModifier(INTERSECTION, name, members=tuple(members))
        )

    def _parse_nested_relation(self, el, subject: str, predicate: str, location: str) -> None:
        res = self._resource(el)
        if res is None:
            self._unsupported(f"relation element {predicate} without rdf:resource", location)
            return
        obj, iri = res
        self.model.touch_class(obj, iri)
        add_relation(self.model, predicate, subject, obj, ASSERTED)

    def _parse_property(self, el, kind: str, modifier_kind: str | None = None) -> None:
        name = self._element_name(el, "property")
        if name is None:
            return
        location = f"owl:{kind.capitalize()}Property {name}"
        self._declare(name, kind, location)

        domains: list[str] = []
        ranges: list[str] = []
        for child in el:
            ns, local = _split_tag(child.tag)
            if (ns, local) == (RDFS_NS, "domain"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("domain without rdf:resource", location)
                    continue
                self.model.touch_class(res[0], res[1])
                domains.append(res[0])
            elif (ns, local) == (RDFS_NS, "range"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("range without rdf:resource", location)
                    continue
                if kind == OBJECT:
                    self.model.touch_class(res[0], res[1])
                    ranges.append(res[0])
                # datatype ranges (XSD types) carry no class information
            elif (ns, local) == (OWL_NS, "inverseOf"):
                res = self._resource(child)
                if res is None:
                    self._unsupported("inverseOf without rdf:resource", location)
                    continue
                counterpart = res[0]
                # inverseOf implies the counterpart is an object property
                self._declare(counterpart, OBJECT, location)
                self.model.add_modifier(RawModifier(INVERSE, name, counterpart=counterpart))
            elif (ns, local) == (RDF_NS, "type"):
                pass
            else:
                self._unsupported(f"property element {local}", location)

        if modifier_kind is not None:
            self.model.add_modifier(RawModifier(modifier_kind, name))

        if kind == OBJECT:
            for d in domains:
                for r in ranges:
                    add_relation(self.model, name, d, r, ASSERTED)
        else:
            for d in domains:
                add_holding(self.model, name, d, ASSERTED)


_CLASS_NAMES = ["A", "B", "C", "D", "E"]
_PROPERTY_NAMES = ["p", "q", "r", "s"]
_DOC_OPEN = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#" xmlns:ex="http://example.org/ex#"'
    ' xmlns="http://example.org/default#">'
)


def random_rdfxml(seed: int) -> bytes:
    """An RDF/XML document with every construct the reader recognizes and
    each one it skips, in random number and order.

    Class and property names share no pool, except now and then, so some
    documents declare one name with two kinds.  A few documents have a root
    other than rdf:RDF, a syntax error (sometimes after a construct that
    strict mode rejects), an internal entity or an undefined one.
    """
    rng = random.Random(f"rdfxml/{seed}")

    def name(pool):
        if rng.random() < 0.03:
            pool = _CLASS_NAMES + _PROPERTY_NAMES
        return rng.choice(pool)

    def ref(pool=_CLASS_NAMES) -> str:
        n = name(pool)
        return rng.choice([f"#{n}", f"http://example.org/onto#{n}", f"http://example.org/{n}", n])

    def ident(pool) -> str:
        """rdf:ID, rdf:about or nothing (an anonymous element)."""
        roll = rng.random()
        if roll < 0.08:
            return ""
        if roll < 0.55:
            return f' rdf:ID="{name(pool)}"'
        return f' rdf:about="{ref(pool)}"'

    def junk() -> str:
        return rng.choice(["", "text", "<rdfs:label>deep<ex:x/></rdfs:label>", "<owl:Class/>"])

    def class_member() -> str:
        return rng.choice(
            [
                f'<owl:Class rdf:about="{ref()}"/>',
                f"<owl:Class{ident(_CLASS_NAMES)}>{junk()}</owl:Class>",
                "<owl:Class/>",
                "<owl:Restriction><owl:onProperty/></owl:Restriction>",
            ]
        )

    def members(most: int) -> str:
        return "".join(class_member() for _ in range(rng.randint(0, most)))

    def class_child() -> str:
        tag = rng.choice(["rdfs:subClassOf", "owl:equivalentClass"])
        roll = rng.randrange(12)
        if roll < 3:
            return f'<{tag} rdf:resource="{ref()}">{junk()}</{tag}>'
        if roll < 5:
            return f"<{tag}>{members(3)}</{tag}>"
        if roll == 5:
            parse_type = rng.choice(['="Collection"'] * 3 + ['="Resource"', None])
            parse_type = f" rdf:parseType{parse_type}" if parse_type else ""
            return f"<owl:intersectionOf{parse_type}>{members(4)}</owl:intersectionOf>"
        if roll == 6:
            return '<rdf:type rdf:resource="http://www.w3.org/2002/07/owl#Class"/>'
        if roll == 7:
            return rng.choice(
                [
                    "<rdfs:label>x</rdfs:label>",
                    '<owl:unionOf rdf:parseType="Collection"/>',
                    "<rdf:value/>",
                ]
            )
        if roll < 11:
            tag = rng.choice(["ex:", "", "ex:"]) + name(_PROPERTY_NAMES)
            return f'<{tag} rdf:resource="{ref()}"/>'
        return rng.choice(["<ex:p>text</ex:p>", "<q><owl:Class/></q>"])

    def property_child(kind_range: str) -> str:
        roll = rng.randrange(10)
        if roll < 3:
            return f'<rdfs:domain rdf:resource="{ref()}"/>'
        if roll < 6:
            return f'<rdfs:range rdf:resource="{rng.choice([ref(), kind_range])}"/>'
        if roll == 6:
            return f'<owl:inverseOf rdf:resource="{ref(_PROPERTY_NAMES)}"/>'
        if roll == 7:
            return '<rdf:type rdf:resource="http://www.w3.org/2002/07/owl#FunctionalProperty"/>'
        return rng.choice(
            [
                "<rdfs:domain/>",
                "<rdfs:range><owl:Class/></rdfs:range>",
                "<owl:inverseOf/>",
                "<rdfs:label>x</rdfs:label>",
                '<rdfs:subPropertyOf rdf:resource="#p"/>',
            ]
        )

    def top_level() -> str:
        roll = rng.randrange(20)
        if roll < 8:
            body = "".join(class_child() for _ in range(rng.randint(0, 4)))
            return f"<owl:Class{ident(_CLASS_NAMES)}>{body}</owl:Class>"
        if roll < 15:
            tag = rng.choice(
                [
                    "owl:ObjectProperty",
                    "owl:DatatypeProperty",
                    "owl:SymmetricProperty",
                    "owl:TransitiveProperty",
                ]
            )
            xsd = "http://www.w3.org/2001/XMLSchema#string"
            body = "".join(property_child(xsd) for _ in range(rng.randint(0, 4)))
            return f"<{tag}{ident(_PROPERTY_NAMES)}>{body}</{tag}>"
        if roll < 17:
            body = "".join(
                rng.choice(
                    [
                        '<owl:imports rdf:resource="http://example.org/other"/>',
                        "<rdfs:comment>c</rdfs:comment>",
                        "<owl:versionInfo>1</owl:versionInfo>",
                    ]
                )
                for _ in range(rng.randint(0, 3))
            )
            return f'<owl:Ontology rdf:about="">{body}</owl:Ontology>'
        return rng.choice(
            [
                '<owl:Restriction rdf:ID="R"/>',
                f'<rdf:Description rdf:about="{ref()}"><ex:p rdf:resource="#A"/></rdf:Description>',
                "<ex:Thing><owl:Class rdf:ID=\"A\"/></ex:Thing>",
                "<owl:AllDisjointClasses><owl:members/></owl:AllDisjointClasses>",
            ]
        )

    items = [top_level() for _ in range(rng.randint(0, 12))]
    prolog = '<?xml version="1.0"?>\n'
    roll = rng.random()
    if roll < 0.05:
        prolog += '<!DOCTYPE rdf:RDF [<!ENTITY n "A">]>\n'
        items.append('<owl:Class rdf:ID="&n;"><ex:p rdf:resource="#&n;"/></owl:Class>')
    elif roll < 0.08:
        items.insert(rng.randint(0, len(items)), "<owl:Class>&undefined;</owl:Class>")
    text = prolog + _DOC_OPEN + "\n".join(items) + "</rdf:RDF>"
    roll = rng.random()
    if roll < 0.05:
        text = text.replace("<rdf:RDF", "<rdf:Description", 1)
        text = text[: -len("rdf:RDF>")] + "rdf:Description>"
    elif roll < 0.10:
        cut = rng.randint(len(prolog) + len(_DOC_OPEN), len(text))
        text = text[:cut] + rng.choice(["<", "</wrong>", "&", ""])
    return text.encode("utf-8")
