"""Reachability kernel for the subclass and transitive closures.

reachable_pairs condenses the graph into its strongly connected components
(an iterative Tarjan search), which are finished in reverse topological
order: every component that a component reaches is finished before it.  One
sweep in that order then gives each component its row, an int bitset over
the nodes it reaches, as the OR of its successors' rows and members: O(E)
big-int ORs, not one search per source (Nuutila, "Efficient transitive
closure computation in large digraphs", 1995).  The members of a component
share one row object, and so does a component with a single successor and
that successor's closed row, so a wide shallow hierarchy keeps few rows.

Callers read the rows, not a pair list: Reachability.derived() hands out
only the bits that are not input edges, which is what a closure adds, and
len() is the sum of each component's row popcount (one per row object)
times its size.  groups() runs the same component search and maps each
name to its equivalence group.
tests/test_closure.py checks the kernel against a brute-force oracle.
"""

from __future__ import annotations


def bits(row: int) -> list[int]:
    """The set bits of row, ascending."""
    found = []
    while row:
        top = row.bit_length() - 1
        found.append(top)
        row ^= 1 << top
    found.reverse()
    return found


class PairLimitExceeded(OverflowError):
    """The closure has more pairs than the limit; pairs is the count reached
    when the search stopped."""

    def __init__(self, pairs: int, limit: int) -> None:
        super().__init__(f"reachable pair count exceeds limit {limit}")
        self.pairs = pairs


class Reachability:
    """The closure of a graph on nodes 0..n-1 as one int bitset row per node.

    Bit v of rows[u] is set exactly when v is reachable from u by a path of
    length >= 1, so bit u is set exactly when u lies on a cycle.  cycles
    lists the strongly connected components that lie on a cycle, each sorted.
    len() is the number of pairs.
    """

    __slots__ = ("rows", "cycles", "_successors", "_total")

    def __init__(self, rows, cycles, successors, total):
        self.rows = rows
        self.cycles = cycles
        self._successors = successors  # deduplicated input edges, per node
        self._total = total

    def __len__(self) -> int:
        return self._total

    def derived(self):
        """(u, targets) for every u that reaches a node it has no input edge
        to, targets ascending; u in ascending order."""
        counts: dict[int, int] = {}  # id(row) -> popcount, once per shared row
        for u, successors in enumerate(self._successors):
            row = self.rows[u]
            count = counts.get(id(row))
            if count is None:
                count = counts[id(row)] = row.bit_count()
            if count > len(successors):  # the row holds every input edge, at equal counts no more
                for v in successors:
                    row ^= 1 << v
                yield u, bits(row)


def _components(successors: list[list[int]]) -> list[list[int]]:
    """Strongly connected components in the order Tarjan's search finishes
    them, which is reverse topological order."""
    n = len(successors)
    finished = n + 1  # the order of a node whose component is done
    order = [0] * n  # discovery number from 1; 0 = not seen yet
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            u, edges = work[-1]
            for v in edges:
                if not order[v]:
                    if not successors[v]:  # a sink is a component of its own
                        order[v] = finished
                        components.append([v])
                        continue
                    counter += 1
                    order[v] = low[v] = counter
                    stack.append(v)
                    work.append((v, iter(successors[v])))
                    break
                if order[v] < low[u]:  # v is on the stack: finished nodes never are
                    low[u] = order[v]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                if low[u] == order[u]:
                    component = []
                    while True:
                        w = stack.pop()
                        order[w] = finished
                        component.append(w)
                        if w == u:
                            break
                    components.append(component)
    return components


def groups(pairs) -> dict[str, tuple[str, ...]]:
    """Each name in the pairs mapped to its connected component in the
    undirected graph they span, a sorted tuple, in sorted component order; so
    the result depends neither on the pair order nor on the hash seed.  Every
    component of a graph with both directions of each edge is strongly connected."""
    names = sorted({name for pair in pairs for name in pair})
    index = {name: i for i, name in enumerate(names)}
    successors: list[list[int]] = [[] for _ in names]
    for a, b in pairs:
        successors[index[a]].append(index[b])
        successors[index[b]].append(index[a])
    # names are sorted, so index order is name order
    found = sorted(tuple(names[i] for i in sorted(c)) for c in _components(successors))
    return {name: group for group in found for name in group}


def reachable_pairs(n: int, edges, limit: int = 0) -> Reachability:
    """Everything reachable by a path of length >= 1, as a Reachability.

    Nodes are 0..n-1; duplicate edges count once.  When limit > 0 and the
    closure would exceed limit pairs, PairLimitExceeded is raised.
    """
    successors: list[list[int]] = [[] for _ in range(n)]
    for u, v in dict.fromkeys(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        successors[u].append(v)

    rows = [0] * n
    component_of = [-1] * n
    closed: dict[int, int] = {}  # v -> v's row with v added
    counts: dict[int, int] = {}  # id(row) -> popcount; every such row stays in rows
    cycles = []
    total = 0
    for c, component in enumerate(_components(successors)):
        for u in component:
            component_of[u] = c
        row = None
        cyclic = False
        for u in component:
            for v in successors[u]:
                if component_of[v] == c:
                    cyclic = True
                    continue
                reach = closed.get(v)
                if reach is None:
                    reach = closed[v] = rows[v] | 1 << v
                row = reach if row is None else row | reach  # one successor: share its row
        if cyclic:  # a cycle reaches itself
            mask = 0
            for u in component:
                mask |= 1 << u
            row = mask if row is None else row | mask
            cycles.append(sorted(component))
        if row is None:
            continue
        for u in component:
            rows[u] = row
        count = counts.get(id(row))
        if count is None:
            count = counts[id(row)] = row.bit_count()
        total += count * len(component)
        if limit and total > limit:
            raise PairLimitExceeded(total, limit)
    return Reachability(rows, cycles, successors, total)
