"""The :class:`Partition` value object: a node-to-community assignment.

Partitions returned by Louvain are *normalised*: community ids are
contiguous ``0..k-1``, assigned in order of first appearance by node id,
so equal clusterings compare equal regardless of label history.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..exceptions import InvalidParameterError


def _integer_labels(assignment: Sequence[int]) -> np.ndarray:
    """``assignment`` as int64, refusing any label that is not an integer value."""
    raw = np.asarray(assignment)
    if raw.ndim != 1:
        raise InvalidParameterError("assignment must be one-dimensional")
    if raw.dtype.kind in "biu":
        return raw.astype(np.int64)
    values = []
    for node, label in enumerate(raw.tolist()):
        try:
            value = int(label)
            exact = value == label and -(2**63) <= value < 2**63
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise InvalidParameterError(
                f"community label {label!r} of node {node} is not a 64-bit integer value"
            )
        values.append(value)
    return np.array(values, dtype=np.int64)


class Partition:
    """An assignment of ``n`` nodes to ``k`` communities.

    Parameters
    ----------
    assignment:
        Sequence of length ``n``; ``assignment[u]`` is the community of
        node ``u``.  Labels may be arbitrary integers (integer-valued
        floats included); they are renumbered to ``0..k-1`` in order of
        first appearance.  Any other label raises
        :class:`~repro.exceptions.InvalidParameterError`.
    """

    __slots__ = ("_assignment", "_k")

    def __init__(self, assignment: Sequence[int]) -> None:
        raw = _integer_labels(assignment)
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        self._assignment = rank[inverse]
        self._k = int(first.size)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes assigned."""
        return int(self._assignment.size)

    @property
    def n_communities(self) -> int:
        """Number of distinct communities, the paper's κ."""
        return self._k

    @property
    def assignment(self) -> np.ndarray:
        """The normalised assignment vector (read-only view)."""
        view = self._assignment.view()
        view.setflags(write=False)
        return view

    def community_of(self, node: int) -> int:
        """Community id of ``node``."""
        return int(self._assignment[node])

    def members(self, community: int) -> np.ndarray:
        """Sorted node ids inside ``community``."""
        if not (0 <= community < self._k):
            raise InvalidParameterError(
                f"community {community} out of range (k={self._k})"
            )
        return np.flatnonzero(self._assignment == community)

    def communities(self) -> List[np.ndarray]:
        """All communities as a list of sorted member arrays."""
        return [self.members(c) for c in range(self._k)]

    def sizes(self) -> np.ndarray:
        """Community sizes indexed by community id."""
        return np.bincount(self._assignment, minlength=self._k)

    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """Every node in its own community (Louvain's starting point)."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_communities(cls, communities: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build from an explicit list of communities covering ``0..n-1``."""
        assignment = np.full(n, -1, dtype=np.int64)
        for cid, members in enumerate(communities):
            for u in members:
                u = int(u)
                if not (0 <= u < n):
                    raise InvalidParameterError(f"node {u} out of range for n={n}")
                if assignment[u] != -1:
                    raise InvalidParameterError(f"node {u} assigned twice")
                assignment[u] = cid
        if np.any(assignment == -1):
            missing = int(np.flatnonzero(assignment == -1)[0])
            raise InvalidParameterError(f"node {missing} not assigned to any community")
        return cls(assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._assignment, other._assignment)

    def __hash__(self) -> int:
        return hash(self._assignment.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition(n_nodes={self.n_nodes}, n_communities={self._k})"
