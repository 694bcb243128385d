"""Immutable finite simple undirected graphs and the primitive constructions.

Vertex labels are opaque strings. Inside the package the hot paths (greedy
reduction, contractible transformations, rim and deletion tests) work on
the row form only: dense indices, ``rows[i]`` an integer whose bit ``j`` is
set exactly when vertices ``i`` and ``j`` are adjacent, and an integer mask
of the vertices in play. A labelled :class:`Graph` is built only at the API
boundary, from a final mask or final rows. Graphs are values: no
operation mutates its input, so shared graphs are safe under concurrency.

A graph's edge tuple is computed at most once, on the first call of
:meth:`Graph.edges`, and kept. Only `transform.r_transform` carries it:
when the parent already holds its tuple, the child's is the parent's with
one pair removed and a few inserted, so a growth loop that asks for the
edges at every step pays for what the step changes. A graph whose edges
nobody asks for never builds them. The lazy fill is the one write after
construction; two threads that race on it compute the same tuple, and
either one is kept, so sharing stays safe.

A :class:`Graph` has one vertex order, whatever order its vertices were
listed in: vertex ``i`` is the ``i``-th smallest label. So every tie-break
by index is one by label, equal graphs have equal rows, and vertices,
edges, neighbors and components come out in label order with no sort.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import _kernels as kernels
from ._kernels._pure import _bits, _component_masks, subgraph_rows


class GraphError(ValueError):
    """Invalid vertices, edges or operands for a graph operation."""


class Graph:
    """A finite simple undirected graph over string labels.

    Construct through :func:`build_graph`, which validates input. Instances
    are immutable; transformations elsewhere return new graphs. Labels in
    another order than sorted are sorted, and ``rows`` permuted to match.
    """

    __slots__ = ("_labels", "_index", "_rows", "_edges")

    def __init__(self, labels: tuple[str, ...], rows: tuple[int, ...]):
        order = tuple(sorted(labels))
        self._index = {lab: i for i, lab in enumerate(order)}
        if order != labels:
            new = [self._index[lab] for lab in labels]
            moved = [0] * len(rows)
            for i, r in enumerate(rows):
                moved[new[i]] = sum(1 << new[j] for j in _bits(r))
            rows = tuple(moved)
        self._labels = order
        self._rows = rows
        self._edges = None

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._labels

    @property
    def order(self) -> int:
        return len(self._labels)

    @property
    def size(self) -> int:
        return sum(map(int.bit_count, self._rows)) >> 1

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        return bool((self._rows[iu] >> iv) & 1)

    def neighbors(self, v: str) -> tuple[str, ...]:
        i = self._require(v)
        return tuple(self._labels[j] for j in _bits(self._rows[i]))

    def degree(self, v: str) -> int:
        return self._rows[self._require(v)].bit_count()

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge ``(u, v)`` with ``u < v``, sorted by label pair.

        Computed at most once per graph and then returned as is;
        `transform.r_transform` derives its result's tuple from a parent
        that holds one (see the module)."""
        edges = self._edges
        if edges is None:
            labels = self._labels
            edges = self._edges = tuple(
                (labels[i], labels[j])
                for i, r in enumerate(self._rows)
                for j in _bits(r >> (i + 1) << (i + 1))
            )
        return edges

    def _require(self, v: str) -> int:
        i = self._index.get(v)
        if i is None:
            raise GraphError(f"vertex {v!r} not in graph")
        return i

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._labels, self._rows) == (other._labels, other._rows)

    def __hash__(self) -> int:
        return hash((self._labels, self._rows))

    def __repr__(self) -> str:
        return f"Graph({self.order} vertices, {self.size} edges)"

    def __contains__(self, v: str) -> bool:
        return v in self._index


# ---------------------------------------------------------------------------
# construction


def build_graph(vertices: Sequence[str], edges: Iterable[tuple[str, str]] = ()) -> Graph:
    """Build a graph from labels and unordered edge pairs.

    Duplicate edges collapse; duplicate vertices, unknown endpoints and
    self-loops are rejected.
    """
    labels = tuple(vertices)
    for lab in labels:
        _check_label(lab)
    if len(set(labels)) != len(labels):
        dup = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise GraphError(f"duplicate vertex {dup!r}")
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop ({u!r}, {v!r}) rejected")
        iu = index.get(u)
        iv = index.get(v)
        if iu is None or iv is None:
            bad = u if iu is None else v
            raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex {bad!r}")
        rows[iu] |= 1 << iv
        rows[iv] |= 1 << iu
    return Graph(labels, tuple(rows))


def _sorted_graph(
    labels: tuple[str, ...],
    rows: tuple[int, ...],
    index: dict[str, int] | None = None,
    edges: tuple[tuple[str, str], ...] | None = None,
) -> Graph:
    """A graph on labels already in sorted order, built without
    `Graph.__init__`'s sort; ``index`` and ``edges``, when given, must be
    those of these labels and rows."""
    g = Graph.__new__(Graph)
    g._labels = labels
    g._index = dict(zip(labels, range(len(labels)))) if index is None else index
    g._rows = rows
    g._edges = edges
    return g


def _check_label(lab) -> None:
    if not isinstance(lab, str):
        raise GraphError(f"vertex labels must be strings, got {lab!r}")


# ---------------------------------------------------------------------------
# primitive constructions


def rim(g: Graph, v: str) -> Graph:
    """Induced subgraph on the neighbors of ``v`` (excluding ``v``)."""
    i = g._require(v)
    return _induced_mask(g, g._rows[i])


def ball(g: Graph, v: str) -> Graph:
    """Induced subgraph on ``v`` together with all its neighbors."""
    i = g._require(v)
    return _induced_mask(g, g._rows[i] | (1 << i))


def edge_rim(g: Graph, u: str, v: str) -> Graph:
    """Induced subgraph on the common neighbors of the edge (u, v)."""
    return _induced_mask(g, _edge_rim_mask(g, u, v))


def _edge_rim_mask(g: Graph, u: str, v: str) -> int:
    """The common neighbors of the edge (u, v), as a mask."""
    iu = g._require(u)
    iv = g._require(v)
    if not (g._rows[iu] >> iv) & 1:
        raise GraphError(f"({u!r}, {v!r}) is not an edge")
    return g._rows[iu] & g._rows[iv]


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Induced subgraph on the vertex set ``keep``."""
    return _induced_mask(g, _mask_of(g, keep))


def _mask_of(g: Graph, labels: Iterable[str]) -> int:
    mask = 0
    for v in labels:
        mask |= 1 << g._require(v)
    return mask


def _induced_mask(g: Graph, mask: int) -> Graph:
    labels = tuple(g._labels[i] for i in _bits(mask))
    return _sorted_graph(labels, subgraph_rows(g._rows, mask))


def relabeled(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """Rename vertices; labels missing from the map keep their names."""
    labels = tuple(mapping.get(lab, lab) for lab in g._labels)
    for lab in labels:
        _check_label(lab)
    if len(set(labels)) != len(labels):
        raise GraphError("relabeling collides")
    return Graph(labels, g._rows)


def join_with_map(g: Graph, h: Graph) -> tuple[Graph, dict[str, str]]:
    """Join of two graphs plus the relabel map applied to the second operand.

    The join keeps both vertex sets, all original edges and every cross
    edge. Colliding labels on the second operand are suffixed until unique;
    the returned map records any renames (empty when none happened).
    """
    taken = set(g._labels)
    renames: dict[str, str] = {}
    h_labels = []
    for lab in h._labels:
        new = lab
        k = 2
        while new in taken or (new != lab and new in h._labels):
            new = f"{lab}~{k}"
            k += 1
        if new != lab:
            renames[lab] = new
        taken.add(new)
        h_labels.append(new)
    ng = g.order
    labels = g._labels + tuple(h_labels)
    cross_h = ((1 << (ng + h.order)) - 1) ^ ((1 << ng) - 1)
    cross_g = (1 << ng) - 1
    rows = [r | cross_h for r in g._rows]
    for r in h._rows:
        rows.append((r << ng) | cross_g)
    return Graph(labels, tuple(rows)), renames


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges (relabels on collision)."""
    return join_with_map(g, h)[0]


def canonical_key(g: Graph) -> bytes:
    """Deterministic canonical form: equal keys exactly for isomorphic graphs.
    The kernel memoizes it on the rows: graphs with equal rows, whatever
    their labels, share one computation until `kernels.clear_caches`."""
    return kernels.canon_bytes(g._rows, (1 << g.order) - 1)


# ---------------------------------------------------------------------------
# connectivity helpers


def is_connected(g: Graph) -> bool:
    return kernels.connected(g._rows, (1 << g.order) - 1)


def components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Connected components as label tuples, each and all in label order."""
    return tuple(
        tuple(g._labels[i] for i in _bits(mask))
        for mask in _component_masks(g._rows, (1 << g.order) - 1)
    )
