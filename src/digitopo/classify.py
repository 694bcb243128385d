"""Recursive recognizers for digital n-surfaces, n-spheres, n-manifolds, disks.

The recursion follows the rims: a 0-sphere is two non-adjacent points; an
n-sphere is a connected graph where every rim is an (n-1)-sphere and every
one-point deletion leaves a contractible graph; an n-manifold only needs the
rim condition. The recursion runs on adjacency rows (see `_kernels`), each
rim reindexed densely by `subgraph_rows`, and labels only name witnesses.
The same rims recur, so surface dimensions and sphere verdicts of connected
graphs are memoized in one table keyed on their exact rows, under the
kernel's cap (`_pure._MEMO_CAP`, one million entries; cleared when full).

The deletion clause is not reindexed: each ``G - v`` is decided on the
sphere candidate's own rows with ``alive = full ^ (1 << v)``, by
`_pure.contractible_within`. All n clauses of one sphere test share one
rim table, local to that test and keyed on rim masks, which are exact keys
while the rows stay fixed; nested rims go into the same table. Dense rows
are built only when a greedy pass stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ._kernels._pure import _memo_put, connected, contractible_within, subgraph_rows
from .graph import Graph, GraphError, _mask_of, build_graph

KIND_SPHERE = "Sphere"
KIND_MANIFOLD = "Manifold"
KIND_SURFACE = "Surface"
KIND_DISK = "Disk"
KIND_NONE = "None"

# ("dim", rows) -> surface dimension or None; ("sphere", d, rows) -> bool
_memo: dict[tuple, Optional[int] | bool] = {}


def clear_caches() -> None:
    _memo.clear()


@dataclass(frozen=True)
class ClassificationVerdict:
    """Recognition outcome. ``failing_witness`` is set exactly for kind None."""

    kind: str
    dimension: Optional[int] = None
    failing_witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.kind != KIND_NONE

    def to_obj(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "witness": self.failing_witness,
        }


# ---------------------------------------------------------------------------
# surfaces


def _label_order(g: Graph) -> list[int]:
    return sorted(range(g.order), key=g._labels.__getitem__)


def _dimension(n: int, rows: tuple[int, ...]) -> Optional[int]:
    if n == 2 and not rows[0]:
        return 0
    if not connected(n, rows):
        return None
    key = ("dim", rows)
    if key not in _memo:
        dims = {_dimension(*subgraph_rows(rows, r)) for r in rows}
        _memo_put(_memo, key, dims.pop() + 1 if len(dims) == 1 and None not in dims else None)
    return _memo[key]


def surface_dimension(g: Graph) -> Optional[int]:
    """Dimension as a digital surface, or None.

    Zero for exactly two non-adjacent points; n > 0 when the graph is
    connected and every rim is an (n-1)-surface.
    """
    return _dimension(g.order, g._rows)


# ---------------------------------------------------------------------------
# spheres


def _failing_deletion(rows: tuple[int, ...], order) -> Optional[int]:
    """First vertex in ``order`` whose deletion leaves a non-contractible
    graph, or None.

    Every deletion is decided on the parent rows, and all of them share one
    rim table: a rim's mask keys its verdict exactly while the rows are fixed.
    """
    full = (1 << len(rows)) - 1
    rims: dict[int, bool] = {}
    return next((i for i in order if not contractible_within(rows, full ^ (1 << i), rims)), None)


def _is_sphere(n: int, rows: tuple[int, ...], d: int) -> bool:
    if d <= 0:
        return d == 0 and n == 2 and not rows[0]
    if not connected(n, rows):
        return False
    key = ("sphere", d, rows)
    if key not in _memo:
        verdict = all(_is_sphere(*subgraph_rows(rows, r), d - 1) for r in rows) and (
            _failing_deletion(rows, range(n)) is None
        )
        _memo_put(_memo, key, verdict)
    return _memo[key]


def _sphere_witness(g: Graph, n: int) -> Optional[str]:
    """First vertex (label order) failing the sphere recursion, if any."""
    if n == 0 or g.order == 0:
        return None
    rows, order = g._rows, _label_order(g)
    for i in order:
        if not _is_sphere(*subgraph_rows(rows, rows[i]), n - 1):
            return g._labels[i]
    i = _failing_deletion(rows, order)
    return None if i is None else g._labels[i]


def is_n_sphere(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a digital n-sphere.

    The contractibility-after-deletion clause is checked for every vertex.
    """
    if n < 0:
        raise GraphError("sphere dimension must be >= 0")
    if _is_sphere(g.order, g._rows, n):
        return ClassificationVerdict(KIND_SPHERE, n)
    return ClassificationVerdict(KIND_NONE, None, _sphere_witness(g, n))


def is_n_manifold(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a closed digital n-manifold (every rim an (n-1)-sphere)."""
    if n < 1:
        raise GraphError("manifold dimension must be >= 1")
    if not connected(g.order, g._rows):
        return ClassificationVerdict(KIND_NONE, None, min(g.vertices, default=None))
    for i in _label_order(g):
        if not _is_sphere(*subgraph_rows(g._rows, g._rows[i]), n - 1):
            return ClassificationVerdict(KIND_NONE, None, g._labels[i])
    return ClassificationVerdict(KIND_MANIFOLD, n)


def is_n_disk(g: Graph, boundary, n: int) -> bool:
    """Does coning a fresh apex onto ``boundary`` produce an n-sphere?

    This realizes the definition of a disk as a sphere minus a point whose
    rim was the boundary. Disks are defined for n >= 1 only; n == 0 is
    always False.
    """
    boundary = set(boundary)
    for b in boundary:
        if not g.has_vertex(b):
            raise GraphError(f"boundary vertex {b!r} not in graph")
    if n <= 0:
        return False
    mask, apex = _mask_of(g, boundary), 1 << g.order
    rows = tuple(r | apex if mask >> i & 1 else r for i, r in enumerate(g._rows))
    return _is_sphere(g.order + 1, rows + (mask,), n)


def minimal_sphere(n: int) -> Graph:
    """Join of n+1 point pairs: the (2n+2)-vertex minimal n-sphere.

    Equivalently the complete multipartite graph with n+1 parts of size 2.
    """
    if n < 0:
        raise GraphError("sphere dimension must be >= 0")
    labels = []
    for i in range(n + 1):
        labels += [f"s{i}a", f"s{i}b"]
    edges = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for a in (f"s{i}a", f"s{i}b"):
                for b in (f"s{j}a", f"s{j}b"):
                    edges.append((a, b))
    return build_graph(labels, edges)


def classify(g: Graph, dimension: Optional[int] = None) -> ClassificationVerdict:
    """Best verdict for a graph, probing the surface dimension first.

    With an explicit ``dimension`` the recognizers run at that dimension
    only. Kind precedence: Sphere, then Manifold, then Surface.
    """
    d = surface_dimension(g) if dimension is None else dimension
    if d is None:
        rows, witness = g._rows, None
        for i in _label_order(g):
            if _dimension(*subgraph_rows(rows, rows[i])) is None:
                witness = g._labels[i]
                break
        return ClassificationVerdict(KIND_NONE, None, witness)
    if d == 0:
        if g.order == 2 and g.size == 0:
            return ClassificationVerdict(KIND_SPHERE, 0)
        return ClassificationVerdict(KIND_NONE, None, min(g.vertices, default=None))
    sphere = is_n_sphere(g, d)
    if sphere.ok:
        return sphere
    manifold = is_n_manifold(g, d)
    if manifold.ok:
        return manifold
    if surface_dimension(g) == d:
        return ClassificationVerdict(KIND_SURFACE, d)
    return ClassificationVerdict(
        KIND_NONE, None, sphere.failing_witness or manifold.failing_witness
    )
