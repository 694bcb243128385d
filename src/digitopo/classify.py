"""Recursive recognizers for digital n-surfaces, n-spheres, n-manifolds, disks.

The recursion follows the rims: a 0-sphere is two non-adjacent points; an
n-sphere is a connected graph where every rim is an (n-1)-sphere and every
one-point deletion leaves a contractible graph; an n-manifold only needs the
rim condition. The recursion runs on adjacency rows (see `_kernels`), each
rim reindexed densely by `subgraph_rows`, and labels only name witnesses.
The same rims recur, so surface dimensions and sphere verdicts of connected
graphs are memoized in one table keyed on their exact rows, under the
kernel's cap (`_pure._MEMO_CAP`, one million entries; cleared when full).

A cone (a vertex adjacent to all others) is no surface, sphere or
manifold: some rim of a cone is a cone again, down to one vertex, whose rim
is empty. Both recursions answer a cone at once, so a complete graph costs
no rim recursion as deep as the graph is large.

The deletion clause runs only after the rim clause has held, and is not
reindexed: each ``G - v`` is decided on the sphere candidate's own rows
with ``alive = full ^ (1 << v)``, by a greedy pass of `_pure` and, when the
pass stalls, `_pure.settle_within` on dense rows. All n clauses of one
sphere test share one rim table, local to that test and keyed on rim masks,
which are exact keys while the rows stay fixed; nested rims go into the
same table. Three facts, each exact once every rim is a (d-1)-sphere, cut
the passes (Ivashchenko, Discrete Math. 126, 1994: simple-point deletions
preserve homology):

- Seeded rims (`_seeded_rims`). A whole rim is a sphere, which is not
  contractible: its reduced homology is nonzero. A rim minus one vertex is
  contractible: the rim's own deletion clause said so, and a 0-sphere
  minus a point is one vertex. The table starts with both verdicts for
  every rim, so the first rim tests of every pass are lookups.
- Dimension 1. A connected graph whose rims are 0-spheres is a cycle of at
  least four vertices, and each ``C - v`` is a path, which is contractible:
  no pass runs.
- Rotation (`_rotated`). When greedy deletion reduces ``G - v`` to a point
  by the order ``s1..sk``, then ``v, s1..sk without sj`` reduces
  ``G - sj`` to the same point whenever ``v`` is simple in ``G - sj``
  (by the seeded table, exactly when ``v ~ sj``) and every earlier ``st``
  adjacent to ``sj`` stays simple without ``sj``; the other steps see the
  rims they saw before. Every vertex proved this way needs no pass, and
  since each is proved exactly, the first failing vertex (the witness)
  stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ._kernels._pure import (
    _bits,
    _cone,
    _greedy,
    _memo_put,
    _simple,
    connected,
    settle_within,
    subgraph_rows,
)
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
        # a cone is no surface: some rim of it is a cone again, down to a
        # single vertex, whose rim is empty
        dims: set[Optional[int]] = set()
        if not _cone(rows, (1 << n) - 1):
            for r in rows:
                dims.add(_dimension(*subgraph_rows(rows, r)))
                if None in dims or len(dims) > 1:
                    break
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


def _seeded_rims(rows: tuple[int, ...]) -> dict[int, bool]:
    """Rim verdicts that hold when every rim of ``rows`` is a sphere: a whole
    rim is not contractible (its reduced homology is nonzero), and a rim
    minus one vertex is (the rim's own deletion clause; a 0-sphere minus a
    point is one vertex)."""
    rims: dict[int, bool] = {}
    for r in rows:
        rims[r] = False
        for b in _bits(r):
            rims[r ^ (1 << b)] = True
    return rims


def _rotated(
    rows: tuple[int, ...], v: int, alive: int, seq: list[int], pending: int, rims: dict[int, bool]
) -> int:
    """The vertices ``s`` of ``pending`` whose ``G - s`` a greedy reduction
    of ``G - v`` (the vertices of ``alive``) to a point by the order ``seq``
    also reduces to a point.

    In ``G - s`` the order ``v, seq without s`` ends at the same point when
    ``v`` is simple there and every earlier ``seq`` vertex adjacent to ``s``
    stays simple without ``s``; later vertices and non-adjacent ones see
    the same rims as in ``seq``. Every rim is looked up in ``rims``, so with
    a table from `_seeded_rims` the test on ``v`` reads ``v ~ s``.
    """
    before, index = [], {}
    left = alive
    for t, u in enumerate(seq):
        before.append(left)
        index[u] = t
        left ^= 1 << u
    full = alive | 1 << v
    out = 0
    for s in _bits(pending & (alive ^ left)):
        gone = alive ^ before[index[s]]
        if _simple(rows, v, full ^ (1 << s), rims) and all(
            _simple(rows, u, before[index[u]] ^ (1 << s), rims) for u in _bits(rows[s] & gone)
        ):
            out |= 1 << s
    return out


def _failing_deletion(rows: tuple[int, ...], order, d: int) -> Optional[int]:
    """First vertex in ``order`` whose deletion leaves a non-contractible
    graph, or None. Every rim of ``rows`` must be a (d-1)-sphere.

    Every deletion is decided on the parent rows, and all of them share one
    rim table, seeded by `_seeded_rims`; the module docstring gives the
    three facts used here. The cycle shortcut for d = 1 tests connectivity
    because `_sphere_witness` comes here without testing it.
    """
    n = len(rows)
    if d == 1 and connected(n, rows):
        return None
    full = (1 << n) - 1
    rims = _seeded_rims(rows)
    pending = full
    for v in order:
        if not pending >> v & 1:
            continue
        pending ^= 1 << v
        alive = full ^ (1 << v)
        if _cone(rows, alive):
            continue
        rest, seq = _greedy(n, rows, start=alive, rims=rims)
        if not settle_within(rows, alive, rest):
            return v
        if not rest & (rest - 1):
            pending ^= _rotated(rows, v, alive, seq, pending, rims)
    return None


def _is_sphere(n: int, rows: tuple[int, ...], d: int) -> bool:
    if d <= 0:
        return d == 0 and n == 2 and not rows[0]
    if not connected(n, rows):
        return False
    key = ("sphere", d, rows)
    if key not in _memo:
        # a cone is no sphere, as it is no surface (see `_dimension`)
        verdict = (
            not _cone(rows, (1 << n) - 1)
            and all(_is_sphere(*subgraph_rows(rows, r), d - 1) for r in rows)
            and _failing_deletion(rows, range(n), d) is None
        )
        _memo_put(_memo, key, verdict)
    return _memo[key]


def _sphere_witness(g: Graph, n: int) -> Optional[str]:
    """First vertex (label order) failing the sphere recursion, if any. A
    graph that is no 0-sphere names its first vertex."""
    if n == 0 or g.order == 0:
        return min(g._labels, default=None)
    rows, order = g._rows, _label_order(g)
    for i in order:
        if not _is_sphere(*subgraph_rows(rows, rows[i]), n - 1):
            return g._labels[i]
    i = _failing_deletion(rows, order, n)
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
    sphere = is_n_sphere(g, d)
    if d == 0:
        return sphere
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
