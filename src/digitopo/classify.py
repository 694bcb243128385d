"""Recursive recognizers for digital n-surfaces, n-spheres, n-manifolds, disks.

The recursion follows the rims: a 0-sphere is two non-adjacent points; an
n-sphere is a connected graph where every rim is an (n-1)-sphere and every
one-point deletion leaves a contractible graph; an n-manifold only needs the
rim condition. The same rim graphs recur massively, so every decision is
memoized on canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import _kernels as kernels
from ._kernels._pure import subgraph_rows
from .graph import (
    Graph,
    GraphError,
    _mask_of,
    _with_vertex,
    build_graph,
    canonical_key,
    is_connected,
    rim,
)

KIND_SPHERE = "Sphere"
KIND_MANIFOLD = "Manifold"
KIND_SURFACE = "Surface"
KIND_DISK = "Disk"
KIND_NONE = "None"

_surface_dim_memo: dict[bytes, Optional[int]] = {}
_sphere_memo: dict[tuple[bytes, int], bool] = {}


def clear_caches() -> None:
    _surface_dim_memo.clear()
    _sphere_memo.clear()


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


def surface_dimension(g: Graph) -> Optional[int]:
    """Dimension as a digital surface, or None.

    Zero for exactly two non-adjacent points; n > 0 when the graph is
    connected and every rim is an (n-1)-surface.
    """
    key = canonical_key(g)
    hit = _surface_dim_memo.get(key, "miss")
    if hit != "miss":
        return hit
    if g.order == 2 and g.size == 0:
        result: Optional[int] = 0
    elif g.order == 0 or not is_connected(g):
        result = None
    else:
        dims = {surface_dimension(rim(g, v)) for v in g.vertices}
        if len(dims) == 1 and None not in dims:
            result = dims.pop() + 1
        else:
            result = None
    _surface_dim_memo[key] = result
    return result


# ---------------------------------------------------------------------------
# spheres


def _is_sphere(g: Graph, n: int) -> bool:
    if n < 0:
        return False
    if n == 0:
        return g.order == 2 and g.size == 0
    key = (canonical_key(g), n)
    hit = _sphere_memo.get(key)
    if hit is not None:
        return hit
    if g.order == 0 or not is_connected(g):
        result = False
    else:
        full = (1 << g.order) - 1
        result = all(_is_sphere(rim(g, v), n - 1) for v in g.vertices) and all(
            kernels.is_contractible(*subgraph_rows(g._rows, full ^ (1 << i)))
            for i in range(g.order)
        )
    _sphere_memo[key] = result
    return result


def _sphere_witness(g: Graph, n: int) -> Optional[str]:
    """First vertex (label order) failing the sphere recursion, if any."""
    if n == 0 or g.order == 0:
        return None
    for v in sorted(g.vertices):
        if not _is_sphere(rim(g, v), n - 1):
            return v
    full = (1 << g.order) - 1
    for v in sorted(g.vertices):
        if not kernels.is_contractible(*subgraph_rows(g._rows, full ^ (1 << g._index[v]))):
            return v
    return None


def is_n_sphere(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a digital n-sphere.

    The contractibility-after-deletion clause is checked for every vertex.
    """
    if n < 0:
        raise GraphError("sphere dimension must be >= 0")
    if _is_sphere(g, n):
        return ClassificationVerdict(KIND_SPHERE, n)
    return ClassificationVerdict(KIND_NONE, None, _sphere_witness(g, n))


def is_n_manifold(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a closed digital n-manifold (every rim an (n-1)-sphere)."""
    if n < 1:
        raise GraphError("manifold dimension must be >= 1")
    if g.order == 0 or not is_connected(g):
        witness = sorted(g.vertices)[0] if g.order else None
        return ClassificationVerdict(KIND_NONE, None, witness)
    for v in sorted(g.vertices):
        if not _is_sphere(rim(g, v), n - 1):
            return ClassificationVerdict(KIND_NONE, None, v)
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
    apex = "apex"
    while g.has_vertex(apex):
        apex += "+"
    return _is_sphere(_with_vertex(g, apex, _mask_of(g, boundary)), n)


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
        witness = None
        for v in sorted(g.vertices):
            if surface_dimension(rim(g, v)) is None:
                witness = v
                break
        return ClassificationVerdict(KIND_NONE, None, witness)
    if d == 0:
        if g.order == 2 and g.size == 0:
            return ClassificationVerdict(KIND_SPHERE, 0)
        return ClassificationVerdict(KIND_NONE, None, sorted(g.vertices)[0] if g.order else None)
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
