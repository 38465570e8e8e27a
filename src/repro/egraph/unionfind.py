"""Disjoint-set forest with path compression and union by rank."""

from __future__ import annotations

from typing import Iterable, List


class UnionFind:
    """A standard union-find over dense integer ids.

    Ids are allocated with :meth:`make_set` and are contiguous from zero.
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._rank: List[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Allocate and return a fresh singleton id."""
        new_id = len(self._parent)
        self._parent.append(new_id)
        self._rank.append(0)
        return new_id

    def copy(self) -> "UnionFind":
        """An independent forest with the same sets."""
        out = UnionFind()
        out._parent = list(self._parent)
        out._rank = list(self._rank)
        return out

    def find(self, x: int) -> int:
        """Return the canonical representative of ``x``'s set."""
        root = x
        parent = self._parent
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def find_many(self, xs: Iterable[int]) -> List[int]:
        """Roots for every id in ``xs`` (bulk :meth:`find`).

        Functionally ``[self.find(x) for x in xs]``, with the per-call
        overhead hoisted out of the loop.
        """
        parent = self._parent
        out = []
        append = out.append
        for x in xs:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            append(root)
        return out

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)
