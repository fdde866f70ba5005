"""Seeded synthetic ontologies for the pipeline benchmark, written as RDF/XML.

Each recipe returns an Ontology, which renders itself as RDF/XML and lists
the modifiers it declares, so the output checks in oracle.py know which
predicate characteristics to test without reading anything through fuzzonto.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    "<rdf:RDF"
    ' xmlns="http://example.org/bench#"'
    ' xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
    ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
    ' xmlns:owl="http://www.w3.org/2002/07/owl#">\n'
)


@dataclass
class Ontology:
    """A generated input: classes, asserted elements and declared modifiers."""

    classes: list[str]
    datatype: dict[str, list[str]] = field(default_factory=dict)  # property -> holders
    predicates: list[str] = field(default_factory=list)
    relations: list[tuple[str, str, str]] = field(default_factory=list)
    subclass: list[tuple[str, str]] = field(default_factory=list)
    equivalences: list[tuple[str, str]] = field(default_factory=list)
    symmetric: tuple[str, ...] = ()
    transitive: tuple[str, ...] = ()
    inverse: tuple[tuple[str, str], ...] = ()  # (property, counterpart)

    def modifiers(self) -> dict:
        return {
            "symmetric": list(self.symmetric),
            "transitive": list(self.transitive),
            "inverse": [list(pair) for pair in self.inverse],
        }

    def to_rdfxml(self) -> bytes:
        subs: dict[str, list[str]] = {}
        for sub, sup in self.subclass:
            subs.setdefault(sub, []).append(sup)
        equivs: dict[str, list[str]] = {}
        for a, b in self.equivalences:
            equivs.setdefault(a, []).append(b)
        rels: dict[str, list[tuple[str, str]]] = {}
        for pred, subject, obj in self.relations:
            rels.setdefault(subject, []).append((pred, obj))

        out = [HEADER]
        for name in self.classes:
            out.append(f'  <owl:Class rdf:ID="{name}">\n')
            for sup in subs.get(name, ()):
                out.append(f'    <rdfs:subClassOf rdf:resource="#{sup}"/>\n')
            for other in equivs.get(name, ()):
                out.append(f'    <owl:equivalentClass rdf:resource="#{other}"/>\n')
            for pred, obj in rels.get(name, ()):
                out.append(f'    <{pred} rdf:resource="#{obj}"/>\n')
            out.append("  </owl:Class>\n")
        for prop, holders in self.datatype.items():
            out.append(f'  <owl:DatatypeProperty rdf:ID="{prop}">\n')
            for holder in holders:
                out.append(f'    <rdfs:domain rdf:resource="#{holder}"/>\n')
            out.append("  </owl:DatatypeProperty>\n")
        inverse_of = dict(self.inverse)
        for pred in self.predicates:
            if pred in self.symmetric:
                tag = "owl:SymmetricProperty"
            elif pred in self.transitive:
                tag = "owl:TransitiveProperty"
            else:
                tag = "owl:ObjectProperty"
            if pred in inverse_of:
                out.append(f'  <{tag} rdf:ID="{pred}">\n')
                out.append(f'    <owl:inverseOf rdf:resource="#{inverse_of[pred]}"/>\n')
                out.append(f"  </{tag}>\n")
            else:
                out.append(f'  <{tag} rdf:ID="{pred}"/>\n')
        out.append("</rdf:RDF>\n")
        return "".join(out).encode("utf-8")


def _random_relations(rng, predicates, classes, per_predicate):
    return [
        (pred, rng.choice(classes), rng.choice(classes))
        for pred in predicates
        for _ in range(per_predicate)
    ]


def hierarchy(n: int, seed: int) -> Ontology:
    """Deep random hierarchy with every modifier kind.

    Each C_i (i > 0) is a subclass of a random one of the 20 classes before
    it; 5 datatype properties are each held by n/10 classes; 4 predicates
    carry n/2 random relations each, with r0 symmetric, r1 transitive and
    r2 inverseOf r3; n/50 random equivalences.

    The structure always comes from recipe seed 1 and ``seed`` only renames
    the classes and shuffles the document (see relabel).  The size of the
    transitive closure of r1 is a percolation effect: across structure seeds
    11-18 it took normalize from 2.9 s to 6.7 s, far more than the machine's
    own run-to-run spread, so a seeded structure would measure the seed.
    """
    return relabel(_hierarchy_structure(n), seed)


def _hierarchy_structure(n: int) -> Ontology:
    rng = random.Random(f"hierarchy/{n}/1")
    classes = [f"C{i}" for i in range(n)]
    onto = Ontology(classes)
    onto.subclass = [
        (classes[i], classes[rng.randrange(max(0, i - 20), i)]) for i in range(1, n)
    ]
    onto.datatype = {f"p{k}": rng.sample(classes, n // 10) for k in range(5)}
    onto.predicates = ["r0", "r1", "r2", "r3"]
    onto.relations = _random_relations(rng, onto.predicates, classes, n // 2)
    onto.equivalences = [tuple(rng.sample(classes, 2)) for _ in range(n // 50)]
    onto.symmetric = ("r0",)
    onto.transitive = ("r1",)
    onto.inverse = (("r2", "r3"),)
    return onto


def flat(n: int, seed: int) -> Ontology:
    """Wide depth-1 hierarchy with many plain keys and no modifiers.

    n classes under n/25 roots, n/2 datatype properties each held by 1-8
    random classes, 8 plain predicates with 3n/4 random relations each.
    """
    rng = random.Random(f"flat/{n}/{seed}")
    classes = [f"C{i}" for i in range(n)]
    roots = n // 25
    onto = Ontology(classes)
    onto.subclass = [(classes[i], classes[rng.randrange(roots)]) for i in range(roots, n)]
    onto.datatype = {
        f"d{k}": rng.sample(classes, rng.randint(1, 8)) for k in range(n // 2)
    }
    onto.predicates = [f"q{k}" for k in range(8)]
    onto.relations = _random_relations(rng, onto.predicates, classes, 3 * n // 4)
    return onto


def relabel(onto: Ontology, seed: int) -> Ontology:
    """The same ontology with class names permuted and every list shuffled."""
    rng = random.Random(f"relabel/{len(onto.classes)}/{seed}")
    names = list(onto.classes)
    rng.shuffle(names)
    new = dict(zip(onto.classes, names))

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    out = Ontology(shuffled(names))
    out.datatype = {p: shuffled(new[h] for h in hs) for p, hs in onto.datatype.items()}
    out.predicates = list(onto.predicates)
    out.relations = shuffled((p, new[s], new[o]) for p, s, o in onto.relations)
    out.subclass = shuffled((new[a], new[b]) for a, b in onto.subclass)
    out.equivalences = shuffled((new[a], new[b]) for a, b in onto.equivalences)
    out.symmetric, out.transitive, out.inverse = onto.symmetric, onto.transitive, onto.inverse
    return out
