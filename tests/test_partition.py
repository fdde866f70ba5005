import random

from fuzzonto.closure import groups
from randmodels import brute_groups


def test_groups_are_sorted_and_ordered_by_members():
    found = groups([("c", "b"), ("e", "a"), ("d", "d")])
    assert list(found.items()) == [
        ("a", ("a", "e")),
        ("e", ("a", "e")),
        ("b", ("b", "c")),
        ("c", ("b", "c")),
        ("d", ("d",)),
    ]
    assert groups([]) == {}


def test_groups_ignore_union_order_and_match_connected_components():
    for seed in range(300):
        rng = random.Random(f"partition/{seed}")
        names = [f"n{rng.randrange(1000)}" for _ in range(rng.randint(0, 14))]
        pairs = [
            (rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, len(names)))
        ]
        expected = sorted(tuple(sorted(group)) for group in brute_groups(names, pairs).values())
        expected = [(name, group) for group in expected for name in group]
        for _ in range(3):
            rng.shuffle(names)
            rng.shuffle(pairs)
            # a self-pair is how a name with no partner enters
            shuffled = [(n, n) for n in names] + [
                (b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs
            ]
            rng.shuffle(shuffled)
            assert list(groups(shuffled).items()) == expected, f"seed {seed}"
