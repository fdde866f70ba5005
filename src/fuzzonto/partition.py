"""Union-find partition over class names (or any sortable items)."""

from __future__ import annotations


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, items=()):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> list[list[str]]:
        """Every set, sorted, in the order of their sorted members; so the
        result depends neither on the union order nor on the hash seed."""
        out: dict[str, list[str]] = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        return sorted(sorted(group) for group in out.values())
