from pathlib import Path

from fuzzonto import normalize, parse_document

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_NAMES = [
    "empty.owl",
    "equivalent_property_copy.owl",
    "equivalent_relation_copy.owl",
    "intersection_man.owl",
    "inverse_ownership.owl",
    "paris_france.owl",
    "relation_lift.owl",
    "subclass_chain.owl",
    "symmetric_colleagues.owl",
    "symmetric_equivalent_combo.owl",
    "transitive_areas.owl",
]


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_bytes(name: str) -> bytes:
    return fixture_path(name).read_bytes()


def parse_fixture(name: str):
    return parse_document(fixture_bytes(name), "rdfxml")


def normalize_fixture(name: str):
    return normalize(parse_fixture(name), trace=True)
