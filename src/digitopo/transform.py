"""Edge-to-point replacement: grow a manifold without changing its topology.

Replacing an edge (u, v) with a fresh point x adjacent to u, v and all of
their common neighbors, then removing the edge, is a pair of contractible
transformations. On a digital n-manifold it yields a digital n-manifold
with one more vertex and the same homotopy type.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from ._kernels._pure import _bits
from .graph import Graph, GraphError, _check_label, _sorted_graph
from .homotopy import AttachPoint, DeleteEdge, HomotopyTrace


@dataclass(frozen=True)
class RStep:
    """Record of one edge-to-point replacement."""

    edge: tuple[str, str]
    new_point: str
    rim_labels: tuple[str, ...]  # u, v and their common neighbors

    def to_trace(self) -> HomotopyTrace:
        """Expansion into the underlying attach-point and delete-edge pair."""
        u, v = self.edge
        return HomotopyTrace(
            (
                AttachPoint(self.new_point, frozenset(self.rim_labels)),
                DeleteEdge(u, v),
            )
        )


def r_transform(m: Graph, u: str, v: str, x: str) -> tuple[Graph, RStep]:
    """Replace the edge (u, v) with the fresh point ``x``.

    The new point's rim is u, v and every common neighbor of the edge; the
    edge itself is removed. Vertex count rises by exactly one and edge count
    by exactly one plus the number of common neighbors.
    """
    if not m.has_vertex(u) or not m.has_vertex(v):
        missing = u if not m.has_vertex(u) else v
        raise GraphError(f"vertex {missing!r} not in graph")
    if not m.has_edge(u, v):
        raise GraphError(f"({u!r}, {v!r}) is not an edge")
    if m.has_vertex(x):
        raise GraphError(f"label {x!r} is already a vertex")
    _check_label(x)
    labels, iu, iv = m._labels, m._index[u], m._index[v]
    shared = m._rows[iu] & m._rows[iv]
    rim_mask = shared | (1 << iu) | (1 << iv)
    rim_labels = tuple(labels[i] for i in _bits(rim_mask))
    # x goes in at its label's rank k, and the vertices above it move up one
    k = bisect_left(labels, x)
    low = (1 << k) - 1
    rows = [r & low | r >> k << (k + 1) for r in m._rows]
    # the rows are still at m's positions, their bits already at the new ones
    rows[iu] ^= 1 << (iv + (iv >= k))
    rows[iv] ^= 1 << (iu + (iu >= k))
    for i in _bits(rim_mask):
        rows[i] |= 1 << k
    rows.insert(k, rim_mask & low | rim_mask >> k << (k + 1))
    edges = m._edges
    if edges is not None:
        edges = list(edges)
        del edges[bisect_left(edges, (labels[min(iu, iv)], labels[max(iu, iv)]))]
        for i in _bits(rim_mask):
            insort(edges, (labels[i], x) if i < k else (x, labels[i]))
        edges = tuple(edges)
    out = _sorted_graph(labels[:k] + (x,) + labels[k:], tuple(rows), edges=edges)
    if out.order != m.order + 1 or out.size != m.size + shared.bit_count() + 1:
        raise AssertionError("edge-to-point replacement produced inconsistent counts")
    return out, RStep((u, v), x, rim_labels)


def fresh_label(g: Graph, stem: str = "x") -> str:
    """First label of the form stem1, stem2, ... not used by the graph."""
    k = 1
    while f"{stem}{k}" in g._index:
        k += 1
    return f"{stem}{k}"
