"""Metamorphic relations: how the output must change when the input changes in
a known way.  They need no second implementation, so they can catch a defect
that an oracle copies from the code it checks.
"""

from fuzzonto import assign_all, emit_json, normalize
from randmodels import intersection_model, random_model

MAKES = (random_model, intersection_model)


def membership(m) -> dict:
    """(kind, key) -> MembershipEntry of m's normalized output."""
    return {(kind, key): e for kind, key, e in assign_all(normalize(m).model).table.entries()}


def test_an_isolated_new_class_changes_no_other_element():
    """A class that no element names adds itself to the output and nothing
    else: the normalized model without it has the same bytes, origins
    included.  "C" sorts before every class of the random models."""
    for make in MAKES:
        for seed in range(200):
            m = make(seed)
            before = emit_json(normalize(m).model)
            m.touch_class("C")
            after = normalize(m).model
            assert "C" in after.classes
            del after.classes["C"]
            assert emit_json(after) == before, f"{make.__name__}({seed})"


def test_a_fresh_equivalent_class_joins_the_determiners_and_keeps_every_n():
    """Adding a fresh class Z equivalent to a class C keeps every membership
    key and its n, since equivalent classes count once; Z joins the
    determiners of every key that C determines and of no other; a key that
    is new names Z as its class."""
    gained = 0
    for make in MAKES:
        for seed in range(200):
            m = make(seed)
            c = sorted(m.classes)[seed % len(m.classes)]
            before = membership(m)
            m.touch_class("Z")
            m.add_equivalence(c, "Z")
            after = membership(m)
            label = f"{make.__name__}({seed}), Z = {c}"
            for item, entry in before.items():
                assert after[item].n == entry.n, (label, item)
                joins = ["Z"] if c in entry.determiners else []
                assert sorted(after[item].determiners) == sorted([*entry.determiners, *joins]), (
                    label,
                    item,
                )
            new = after.keys() - before.keys()
            assert all(kind != "property" and key.resulting_class == "Z" for kind, key in new), (
                label
            )
            gained += bool(new)
    assert gained > 50, gained  # keys gained through relations mirrored onto Z
