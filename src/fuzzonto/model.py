"""In-memory ontology model: classes, property holdings, relation assertions,
subclass/equivalence axioms and raw OWL modifiers.

An element is its identity tuple: a holding is (property, holder), a relation
is (predicate, subject, object) and a subclass axiom is (sub, sup).  Each
element collection maps that tuple to the element's origin tag, so
re-deriving an existing element is a no-op and the first origin wins.  Models
are treated as immutable once built: the rewrite passes copy before mutating.
The el_* functions render one element as traces and diagnostics print it.
COLLECTIONS and ELEMENT_KINDS state the model's shape once, for the copy,
the counts, the JSON forms and validation.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DuplicateIdentifier

ASSERTED = "asserted"

DATATYPE = "datatype"
OBJECT = "object"

SYMMETRIC = "symmetric"
TRANSITIVE = "transitive"
INVERSE = "inverse"
INTERSECTION = "intersection"


class RawModifier(
    namedtuple("RawModifier", "kind target counterpart members", defaults=(None, ()))
):
    """Pre-normalization construct consumed by the rewrite stage.

    kind is one of SYMMETRIC / TRANSITIVE / INVERSE / INTERSECTION; target is
    a property name except for INTERSECTION, where it is the defined class.
    counterpart is set for INVERSE only, members (a tuple) for INTERSECTION
    only.
    """

    __slots__ = ()

    def key(self):
        return (self.kind, self.target, self.counterpart or "", self.members)


class Diagnostic(
    namedtuple("Diagnostic", "code severity message location", defaults=(None,))
):
    """One finding; severity is "error" or "warning"."""

    __slots__ = ()

    def render(self) -> str:
        where = f" ({self.location})" if self.location else ""
        return f"{self.severity}[{self.code}]: {self.message}{where}"


# -- element text, as traces and diagnostics print it ------------------------------


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


# -- the model's shape -------------------------------------------------------------

# each collection's JSON and report name -> its attribute
COLLECTIONS = {
    "classes": "classes",
    "properties": "properties",
    "holdings": "holdings",
    "relations": "relations",
    "subclass": "subclass_axioms",
    "equivalences": "equivalences",
    "modifiers": "modifiers",
}


# one kind of element that maps its identity tuple to its origin: its JSON
# array, its attribute, its JSON field names in key order, its el_* renderer,
# the key positions that name classes and properties, and the kind (DATATYPE
# or OBJECT) that a property at those positions must have
ElementKind = namedtuple("ElementKind", "array attr fields render class_slots property_slots needs")

ELEMENT_KINDS = (
    ElementKind("holdings", "holdings", ("property", "holder"), el_holding, (1,), (0,), DATATYPE),
    ElementKind(
        "relations", "relations", ("predicate", "subject", "object"), el_relation, (1, 2), (0,),
        OBJECT,
    ),
    ElementKind("subclass", "subclass_axioms", ("sub", "super"), el_subclass, (0, 1), (), None),
)


class OntologyModel:
    """Graph of one ontology.

    classes maps name -> IRI or None; properties maps declared property name
    -> DATATYPE or OBJECT.  holdings maps (property, holder), relations maps
    (predicate, subject, object) and subclass_axioms maps (sub, sup) to the
    element's origin (insertion keeps the first derivation).  A new model is
    empty.
    """

    def __init__(self) -> None:
        self.classes: dict[str, str | None] = {}
        self.properties: dict[str, str] = {}
        self.holdings: dict[tuple[str, str], str] = {}
        self.relations: dict[tuple[str, str, str], str] = {}
        self.subclass_axioms: dict[tuple[str, str], str] = {}
        self.equivalences: set[tuple[str, str]] = set()
        self.modifiers: set[RawModifier] = set()
        self.normalized = False
        self.parse_warnings: tuple[Diagnostic, ...] = ()

    # -- construction ---------------------------------------------------

    def touch_class(self, name: str, iri: str | None = None) -> None:
        if self.classes.get(name) is None:
            self.classes[name] = iri  # the first non-None IRI sticks

    def declare_property(self, name: str, kind: str) -> None:
        existing = self.properties.get(name)
        if existing is not None and existing != kind:
            raise DuplicateIdentifier(
                f"property {name!r} declared both as {existing} and as {kind}"
            )
        self.properties[name] = kind

    def add_holding(self, prop: str, holder: str, origin: str = ASSERTED) -> bool:
        key = (prop, holder)
        if key in self.holdings:
            return False
        self.holdings[key] = origin
        return True

    def add_relation(
        self, predicate: str, subject: str, object_: str, origin: str = ASSERTED
    ) -> bool:
        key = (predicate, subject, object_)
        if key in self.relations:
            return False
        self.relations[key] = origin
        return True

    def add_subclass(self, sub: str, sup: str, origin: str = ASSERTED) -> bool:
        key = (sub, sup)
        if key in self.subclass_axioms:
            return False
        self.subclass_axioms[key] = origin
        return True

    def add_equivalence(self, a: str, b: str) -> bool:
        """Record an unordered equivalence pair; self-pairs are rejected."""
        if a == b:
            return False
        pair = (a, b) if a < b else (b, a)
        if pair in self.equivalences:
            return False
        self.equivalences.add(pair)
        return True

    def add_modifier(self, modifier: RawModifier) -> bool:
        if modifier in self.modifiers:
            return False
        self.modifiers.add(modifier)
        return True

    # -- views ------------------------------------------------------------

    def sorted_modifiers(self) -> list[RawModifier]:
        return sorted(self.modifiers, key=RawModifier.key)

    def element_count(self) -> int:
        total = sum(len(getattr(self, attr)) for attr in COLLECTIONS.values())
        return total - len(self.properties)  # a property declaration is no element

    def counts(self) -> dict[str, int]:
        counts = {name: len(getattr(self, attr)) for name, attr in COLLECTIONS.items()}
        counts["total"] = self.element_count()
        return counts

    # -- copying ---------------------------------------------------------

    def copy(self) -> OntologyModel:
        new = OntologyModel()
        for attr in COLLECTIONS.values():
            setattr(new, attr, getattr(self, attr).copy())
        new.normalized = self.normalized
        new.parse_warnings = self.parse_warnings
        return new
