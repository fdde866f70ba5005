import random

from fuzzonto.partition import UnionFind
from randmodels import brute_groups


def test_groups_are_sorted_and_ordered_by_members():
    uf = UnionFind(["d", "a"])
    uf.union("c", "b")
    uf.union("e", "a")
    assert uf.groups() == [["a", "e"], ["b", "c"], ["d"]]
    assert UnionFind().groups() == []


def test_groups_ignore_union_order_and_match_connected_components():
    for seed in range(300):
        rng = random.Random(f"partition/{seed}")
        names = [f"n{rng.randrange(1000)}" for _ in range(rng.randint(0, 14))]
        pairs = [
            (rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, len(names)))
        ]
        expected = sorted(sorted(group) for group in brute_groups(names, pairs).values())
        for _ in range(3):
            rng.shuffle(names)
            rng.shuffle(pairs)
            uf = UnionFind(names)
            for a, b in pairs:
                if rng.random() < 0.5:
                    a, b = b, a
                uf.union(a, b)
            assert uf.groups() == expected, f"seed {seed}"
