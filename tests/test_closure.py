import pytest

from fuzzonto import closure
from randmodels import brute_reachable, random_graph

# a single kernel; the "python" id keeps the established test names
IMPLS = [pytest.param(closure, id="python")]


@pytest.mark.parametrize("impl", IMPLS)
def test_empty_graph(impl):
    assert impl.reachable_pairs(0, []) == []
    assert impl.reachable_pairs(5, []) == []


@pytest.mark.parametrize("impl", IMPLS)
def test_single_edge(impl):
    assert impl.reachable_pairs(2, [(0, 1)]) == [(0, 1)]


@pytest.mark.parametrize("impl", IMPLS)
def test_chain(impl):
    pairs = impl.reachable_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("impl", IMPLS)
def test_self_loop_is_kept(impl):
    assert impl.reachable_pairs(1, [(0, 0)]) == [(0, 0)]


@pytest.mark.parametrize("impl", IMPLS)
def test_cycle_members_reach_themselves(impl):
    pairs = impl.reachable_pairs(3, [(0, 1), (1, 0), (1, 2)])
    assert (0, 0) in pairs and (1, 1) in pairs
    assert (2, 2) not in pairs
    assert (0, 2) in pairs


@pytest.mark.parametrize("impl", IMPLS)
def test_duplicate_edges_are_deduped(impl):
    assert impl.reachable_pairs(2, [(0, 1), (0, 1), (0, 1)]) == [(0, 1)]


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


@pytest.mark.parametrize("impl", IMPLS)
def test_matches_brute_force_on_random_graphs(impl):
    for seed in range(150):
        n, edges = random_graph(seed)
        got = impl.reachable_pairs(n, edges)
        assert got == sorted(brute_reachable(edges)), f"seed {seed}"
