import random

import pytest

from fuzzonto import closure
from randmodels import brute_groups, brute_reachable, closed_pairs, random_graph

# a single kernel; the "python" id keeps the established test names
IMPLS = [pytest.param(closure, id="python")]


def pairs(impl, n, edges, limit=0):
    """The kernel's pairs as a sorted list, checked against its len()."""
    reach = impl.reachable_pairs(n, edges, limit)
    got = closed_pairs(reach)
    assert len(reach) == len(got)
    return got


def derived(reach):
    return [(u, v) for u, targets in reach.derived() for v in targets]


@pytest.mark.parametrize("impl", IMPLS)
def test_empty_graph(impl):
    assert pairs(impl, 0, []) == []
    assert pairs(impl, 5, []) == []


@pytest.mark.parametrize("impl", IMPLS)
def test_single_edge(impl):
    assert pairs(impl, 2, [(0, 1)]) == [(0, 1)]


@pytest.mark.parametrize("impl", IMPLS)
def test_chain(impl):
    got = pairs(impl, 4, [(0, 1), (1, 2), (2, 3)])
    assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("impl", IMPLS)
def test_self_loop_is_kept(impl):
    assert pairs(impl, 1, [(0, 0)]) == [(0, 0)]
    reach = impl.reachable_pairs(3, [(1, 1), (1, 2)])
    assert closed_pairs(reach) == [(1, 1), (1, 2)]
    assert reach.cycles == [[1]]
    assert derived(reach) == []  # both pairs are input edges


@pytest.mark.parametrize("impl", IMPLS)
def test_cycle_members_reach_themselves(impl):
    got = pairs(impl, 3, [(0, 1), (1, 0), (1, 2)])
    assert (0, 0) in got and (1, 1) in got
    assert (2, 2) not in got
    assert (0, 2) in got


@pytest.mark.parametrize("impl", IMPLS)
def test_two_cycle(impl):
    reach = impl.reachable_pairs(2, [(1, 0), (0, 1)])
    assert closed_pairs(reach) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert reach.cycles == [[0, 1]]
    assert reach.rows[0] is reach.rows[1]  # one row per component
    assert derived(reach) == [(0, 0), (1, 1)]


@pytest.mark.parametrize("impl", IMPLS)
def test_cycle_into_dag(impl):
    # 0 <-> 1 -> 2 -> 4, 1 -> 3 -> 4, and 5 -> 0 feeding the cycle
    edges = [(0, 1), (1, 0), (1, 2), (2, 4), (1, 3), (3, 4), (5, 0)]
    reach = impl.reachable_pairs(6, edges)
    assert closed_pairs(reach) == sorted(brute_reachable(edges))
    assert reach.cycles == [[0, 1]]
    assert derived(reach) == sorted(brute_reachable(edges) - set(edges))
    assert (5, 5) not in set(closed_pairs(reach))


@pytest.mark.parametrize("impl", IMPLS)
def test_many_one_node_components_share_one_row(impl):
    """Leaves under one hub, as in a wide flat hierarchy, share the hub's
    row and its count; the hub reaches a 2-cycle, and some leaves also point
    to a sink of their own, which gives them a wider row."""
    edges = [(0, 1), (1, 2), (2, 1)]
    edges += [(leaf, 0) for leaf in range(3, 40)]
    edges += [(leaf, 40) for leaf in range(30, 40)]
    expected = brute_reachable(edges)
    reach = impl.reachable_pairs(41, edges)
    assert closed_pairs(reach) == sorted(expected)
    assert len(reach) == len(expected)
    assert derived(reach) == sorted(expected - set(edges))
    assert all(reach.rows[leaf] is reach.rows[3] for leaf in range(3, 30))
    assert len(impl.reachable_pairs(41, edges, len(expected))) == len(expected)
    with pytest.raises(OverflowError):
        impl.reachable_pairs(41, edges, len(expected) - 1)
    # a star: each leaf reaches the root alone, so nothing is derived
    star = [(leaf, 0) for leaf in range(1, 30)]
    reach = impl.reachable_pairs(30, star)
    assert len(reach) == 29 and derived(reach) == []


@pytest.mark.parametrize("impl", IMPLS)
def test_duplicate_edges_are_deduped(impl):
    assert pairs(impl, 2, [(0, 1), (0, 1), (0, 1)]) == [(0, 1)]


@pytest.mark.parametrize("impl", IMPLS)
def test_out_of_range_edge_rejected(impl):
    with pytest.raises(ValueError):
        impl.reachable_pairs(2, [(0, 2)])
    with pytest.raises(ValueError):
        impl.reachable_pairs(2, [(-1, 0)])


@pytest.mark.parametrize("impl", IMPLS)
def test_limit_overflow(impl):
    edges = [(i, i + 1) for i in range(5)]  # closure has 15 pairs
    assert len(impl.reachable_pairs(6, edges, 15)) == 15
    with pytest.raises(OverflowError):
        impl.reachable_pairs(6, edges, 14)
    # a cycle of 3 has 9 pairs, one shared row for 3 nodes
    cycle = [(0, 1), (1, 2), (2, 0)]
    assert len(impl.reachable_pairs(3, cycle, 9)) == 9
    with pytest.raises(OverflowError):
        impl.reachable_pairs(3, cycle, 8)
    assert len(impl.reachable_pairs(3, cycle, 0)) == 9  # 0 means no limit


@pytest.mark.parametrize("impl", IMPLS)
def test_matches_brute_force_on_random_graphs(impl):
    for seed in range(300):
        n, edges = random_graph(seed)
        reach = impl.reachable_pairs(n, edges)
        expected = brute_reachable(edges)
        assert closed_pairs(reach) == sorted(expected), f"seed {seed}"
        assert len(reach) == len(expected), f"seed {seed}"
        assert derived(reach) == sorted(expected - set(edges)), f"seed {seed}"
        cyclic = {u for u, v in expected if u == v}
        assert sorted(u for cycle in reach.cycles for u in cycle) == sorted(cyclic)


# -- equivalence groups -------------------------------------------------------


def test_groups_are_sorted_and_ordered_by_members():
    found = closure.groups([("c", "b"), ("e", "a"), ("d", "d")])
    assert list(found.items()) == [
        ("a", ("a", "e")),
        ("e", ("a", "e")),
        ("b", ("b", "c")),
        ("c", ("b", "c")),
        ("d", ("d",)),
    ]
    assert closure.groups([]) == {}


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
            assert list(closure.groups(shuffled).items()) == expected, f"seed {seed}"
