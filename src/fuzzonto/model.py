"""In-memory ontology model: classes, property holdings, relation assertions,
subclass/equivalence axioms and raw OWL modifiers.

An element is its identity tuple: a holding is (property, holder), a relation
is (predicate, subject, object) and a subclass axiom is (sub, sup).  Each
element collection maps that tuple to the element's origin tag, so
re-deriving an existing element is a no-op and the first origin wins.  Models
are treated as immutable once built: the rewrite passes copy before mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateIdentifier

ASSERTED = "asserted"

DATATYPE = "datatype"
OBJECT = "object"

SYMMETRIC = "symmetric"
TRANSITIVE = "transitive"
INVERSE = "inverse"
INTERSECTION = "intersection"


@dataclass(frozen=True)
class RawModifier:
    """Pre-normalization construct consumed by the rewrite stage.

    kind is one of SYMMETRIC / TRANSITIVE / INVERSE / INTERSECTION; target is
    a property name except for INTERSECTION, where it is the defined class.
    """

    kind: str
    target: str
    counterpart: str | None = None  # INVERSE only
    members: tuple[str, ...] = ()  # INTERSECTION only

    def key(self):
        return (self.kind, self.target, self.counterpart or "", self.members)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    severity: str  # "error" | "warning"
    message: str
    location: str | None = None

    def render(self) -> str:
        where = f" ({self.location})" if self.location else ""
        return f"{self.severity}[{self.code}]: {self.message}{where}"


@dataclass(eq=False)
class OntologyModel:
    """Graph of one ontology.

    classes maps name -> IRI or None; properties maps declared property name
    -> DATATYPE or OBJECT.  holdings maps (property, holder), relations maps
    (predicate, subject, object) and subclass_axioms maps (sub, sup) to the
    element's origin (insertion keeps the first derivation).
    """

    classes: dict[str, str | None] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    holdings: dict[tuple[str, str], str] = field(default_factory=dict)
    relations: dict[tuple[str, str, str], str] = field(default_factory=dict)
    subclass_axioms: dict[tuple[str, str], str] = field(default_factory=dict)
    equivalences: set[tuple[str, str]] = field(default_factory=set)
    modifiers: set[RawModifier] = field(default_factory=set)
    normalized: bool = False
    parse_warnings: tuple[Diagnostic, ...] = ()

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
        return (
            len(self.classes)
            + len(self.holdings)
            + len(self.relations)
            + len(self.subclass_axioms)
            + len(self.equivalences)
            + len(self.modifiers)
        )

    def counts(self) -> dict[str, int]:
        return {
            "classes": len(self.classes),
            "properties": len(self.properties),
            "holdings": len(self.holdings),
            "relations": len(self.relations),
            "subclass": len(self.subclass_axioms),
            "equivalences": len(self.equivalences),
            "modifiers": len(self.modifiers),
            "total": self.element_count(),
        }

    # -- copying / equality ------------------------------------------------

    def copy(self) -> OntologyModel:
        return OntologyModel(
            classes=dict(self.classes),
            properties=dict(self.properties),
            holdings=dict(self.holdings),
            relations=dict(self.relations),
            subclass_axioms=dict(self.subclass_axioms),
            equivalences=set(self.equivalences),
            modifiers=set(self.modifiers),
            normalized=self.normalized,
            parse_warnings=self.parse_warnings,
        )

    def canonical(self, with_origins: bool = True) -> tuple:
        def elements(origin_of: dict) -> tuple:
            return tuple(sorted(origin_of.items() if with_origins else origin_of))

        return (
            tuple(sorted(self.classes.items())),
            tuple(sorted(self.properties.items())),
            elements(self.holdings),
            elements(self.relations),
            elements(self.subclass_axioms),
            tuple(sorted(self.equivalences)),
            tuple(m.key() for m in self.sorted_modifiers()),
            self.normalized,
        )

    def same_elements(self, other: OntologyModel) -> bool:
        """Structural equality ignoring origin tags and the normalized flag."""
        return self.canonical(with_origins=False)[:-1] == other.canonical(
            with_origins=False
        )[:-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OntologyModel):
            return NotImplemented
        return self.canonical() == other.canonical()
