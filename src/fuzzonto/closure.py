"""Reachability kernel for the subclass and transitive closures.

tests/test_closure.py checks it against a brute-force oracle.  The kernel is
a small share of a pipeline run, so timing it alone says little about
pipeline speed; perfbench/run.py measures the whole `rules` run.
"""

from __future__ import annotations


def reachable_pairs(n: int, edges, limit: int = 0) -> list[tuple[int, int]]:
    """All pairs (u, v) such that v is reachable from u by a path of length >= 1.

    Nodes are 0..n-1.  A pair (u, u) appears exactly when u lies on a cycle.
    Output is sorted.  When limit > 0 and the result would exceed limit pairs,
    OverflowError is raised.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if (u, v) not in seen:
            seen.add((u, v))
            adj[u].append(v)

    pairs: list[tuple[int, int]] = []
    mark = [-1] * n  # mark[v] == s: v already reached from source s
    for s in range(n):
        reached = []
        stack = list(adj[s])
        while stack:
            v = stack.pop()
            if mark[v] != s:
                mark[v] = s
                reached.append(v)
                stack.extend(adj[v])
        reached.sort()
        pairs.extend([(s, v) for v in reached])
        if limit and len(pairs) > limit:
            raise OverflowError(f"reachable pair count exceeds limit {limit}")
    return pairs
