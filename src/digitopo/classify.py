"""Recursive recognizers for digital n-surfaces, n-spheres, n-manifolds, disks.

The recursion follows the rims: a 0-sphere is two non-adjacent points; an
n-sphere is a connected graph where every rim is an (n-1)-sphere and every
one-point deletion leaves a contractible graph; an n-manifold only needs the
rim condition. It is one memoized walk, `_dimension`, on adjacency rows (see
`_kernels`). Each rim is first read on the caller's rows as a vertex mask
(`_rim_rows`). Two non-adjacent vertices are a 0-sphere. A mask is a
1-sphere exactly when it has at least four vertices, each with exactly two
neighbors in it, and is connected; one walk around the cycle checks all
three. It is a 2-sphere exactly when the rim of each of its vertices within
it is a 1-sphere, it is connected and ``3V - E == 6`` (the Euler fact
below; it stops at d = 2 for the reason given there). The ring of a
vertex w in the rim of v is the link of the edge vw, which the rim of w
meets again, so the walk of one graph tests each ring once, in a table
keyed by its mask. Such a rim is kept as the rows of the minimal sphere of
its dimension, which answer every question the recognizers ask of a rim
(its dimension, and whether it is a sphere of a given dimension) as the
rim does. Any other rim is reindexed densely, by `subgraph_rows`, so the
walk reindexes no rim of a 2- or 3-manifold.

For each connected graph, keyed on its rows tuple (the key of the kernel's
memo tables; its length is the vertex count) under the kernel's cap
(`_pure._MEMO_CAP`, one million entries; cleared when full), the memo keeps
its surface dimension, its rims as far as the walk built them, and its
sphere verdict at that dimension once asked. The walk stops at once at a
cone (a vertex adjacent to all others), which is no surface: some rim of a
cone is a cone again, down to one vertex, whose rim is empty. A d-sphere is
a d-surface, so a sphere query asks the dimension first. Labels only name
witnesses: the first vertex in index order, which on a `Graph` is label
order, whose rim (or, in a sphere test, whose deletion) fails, with the
rims read off the same walk. The memo keeps a sphere verdict as that
witness (None for a sphere): one computation, `_sphere_witness`.

The deletion clause runs only after the rim clause has held, and is not
reindexed: each ``G - v`` that no fact below answers (at d >= 3) is
decided on the sphere candidate's own rows with
``alive = full ^ (1 << v)``, by one `_pure.decide` call: a cone at once,
else a greedy pass on those rows and, when it stalls, the exact tiers on
the same rows. All n clauses of one sphere test share one rim
table, local to that test and keyed on rim masks, which are exact keys
while the rows stay fixed, and every tier reads it, tier 3's nodes too.
A rim the table does not hold is decided on its own dense rows
(`_pure._simple`), under the kernel's rows-keyed memo; its nested rims
stay out of the table. Five facts, each exact once every rim is a
(d-1)-sphere, cut the passes (Ivashchenko, Discrete Math. 126, 1994:
simple-point deletions preserve homology):

- Seeded rims (`_seeded_rims`). A whole rim is a sphere, which is not
  contractible: its reduced homology is nonzero. A rim minus one vertex is
  contractible: the rim's own deletion clause said so, and a 0-sphere
  minus a point is one vertex. The table starts with both verdicts for
  every rim, so the first rim tests of every pass are lookups.
- Dimension 1. A connected graph whose rims are 0-spheres is a cycle of at
  least four vertices, and each ``C - v`` is a path, which is contractible:
  no pass runs.
- Dimension 2 (Euler's formula). When every rim is a cycle of at least
  four vertices, the clique complex has no K4 and each edge lies in
  exactly two triangles: it is a closed surface, with 3F = 2E and
  chi = V - E + F = V - E/3. Deleting ``v`` removes its star, a cone glued
  along its rim, a circle, so chi(G - v) = chi(G) - 1 (Mayer-Vietoris). If
  ``3V - E != 6``, chi(G) != 2, so no ``G - v`` has the chi = 1 of a
  contractible graph, and the witness is the first vertex tried. If G is
  disconnected, each ``G - v`` is too (a component holds at least five
  vertices), so every deletion fails again; a 2-sphere beside a torus has
  chi = 2, so connectivity is tested, not implied. If G is connected with
  chi = 2, it is a 2-sphere (classification of surfaces), and each
  ``G - v`` a flag 2-disk. A contractible full subcomplex of a flag
  2-sphere with two or more vertices has a vertex whose rim in it is one
  path; that vertex is simple, and deleting it keeps the subcomplex
  contractible (Ivashchenko 1994), so by induction ``G - v`` reduces to a
  point. So d = 2 needs ``3V - E == 6`` and connectivity, and no pass
  runs. Nothing like this holds for d >= 3: some triangulated 3-balls are
  not collapsible (Benedetti & Lutz, Exp. Math. 23, 2014), so there the
  passes below stay.
- Start mask. In ``G - v`` only the neighbors of ``v`` have lost a rim
  vertex; every other vertex keeps its whole rim, a sphere, which is not
  contractible. So the greedy pass starts from ``rows[v]`` alone
  (`_pure.decide`'s ``start``) and deletes what a pass from every vertex
  deletes, in the same order.
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

from ._kernels._pure import _bits, _cone, _memo_put, _simple, connected, decide, subgraph_rows
from .graph import Graph, GraphError, _mask_of

KIND_SPHERE = "Sphere"
KIND_MANIFOLD = "Manifold"
KIND_SURFACE = "Surface"
KIND_NONE = "None"

# rows -> [surface dimension or None, rims' rows (see `_rim_rows`), sphere
# witness at that dimension (see `_sphere_witness`), or _UNASKED]
_memo: dict[tuple[int, ...], list] = {}
_UNASKED = -1


def clear_caches() -> None:
    _memo.clear()


@dataclass(frozen=True)
class ClassificationVerdict:
    """Recognition outcome. ``failing_witness`` is None for every kind but
    None; for kind None it names a failing vertex, and is None only when the
    graph has no vertex."""

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


def _cycle(rows: tuple[int, ...], r: int) -> bool:
    """Is the mask ``r`` a 1-sphere: at least four vertices, each with
    exactly two neighbors in ``r``, and connected? One walk from the lowest
    vertex must come back to it after meeting all of them."""
    n = r.bit_count()
    if n < 4:
        return False
    start = cur = r & -r
    prev = rows[start.bit_length() - 1] & r
    prev &= -prev
    for step in range(1, n + 1):
        nbrs = rows[cur.bit_length() - 1] & r
        if nbrs.bit_count() != 2:
            return False
        prev, cur = cur, nbrs ^ prev
        if cur == start:
            break
    return step == n


def _sphere_2(rows: tuple[int, ...], r: int, links: Optional[dict[int, bool]] = None) -> bool:
    """Is the mask ``r`` a 2-sphere: the rim of each of its vertices within
    ``r`` a 1-sphere, ``r`` connected, and ``3V - E == 6`` (the Euler fact
    of the module)? When ``r`` is the rim of a vertex v, the ring of w is
    the link of the edge vw, met again from w's end; ``links`` keeps the
    `_cycle` verdict of each ring mask, exact while ``rows`` stay fixed."""
    if links is None:
        links = {}
    twice_edges = 0
    for w in _bits(r):
        ring = rows[w] & r
        ok = links.get(ring)
        if ok is None:
            ok = links[ring] = _cycle(rows, ring)
        if not ok:
            return False
        twice_edges += ring.bit_count()
    return 6 * r.bit_count() - twice_edges == 12 and connected(rows, r)


def _rim_rows(
    rows: tuple[int, ...], r: int, links: Optional[dict[int, bool]] = None
) -> tuple[int, ...]:
    """Rows that answer for the rim mask ``r`` in the walk: those of the
    minimal 0-, 1- or 2-sphere when ``r`` is one by the mask facts (see the
    module), else ``r`` reindexed densely. ``links`` goes to `_sphere_2`."""
    if r.bit_count() == 2 and not rows[(r & -r).bit_length() - 1] & r:
        return _SPHERE_ROWS[0]
    if _cycle(rows, r):
        return _SPHERE_ROWS[1]
    if _sphere_2(rows, r, links):
        return _SPHERE_ROWS[2]
    return subgraph_rows(rows, r)


def _dimension(rows: tuple[int, ...]) -> Optional[int]:
    if rows not in _memo:
        if len(rows) == 2 and not rows[0]:
            return 0
        full = (1 << len(rows)) - 1
        if not connected(rows, full):
            return None
        rims: list[tuple[int, ...]] = []
        dims: set[Optional[int]] = set()
        if not _cone(rows, full):
            # each edge link is met from both ends of the edge: test it once
            links: dict[int, bool] = {}
            for r in rows:
                rims.append(_rim_rows(rows, r, links))
                dims.add(_dimension(rims[-1]))
                if None in dims or len(dims) > 1:
                    break
        dim = dims.pop() + 1 if len(dims) == 1 and None not in dims else None
        _memo_put(_memo, rows, [dim, rims, _UNASKED])
    return _memo[rows][0]


def _rims(rows: tuple[int, ...]):
    """Each vertex's rim rows, in index order: as the walk of ``rows`` built
    them, or built alone by `_rim_rows` when reached."""
    built = _memo[rows][1] if rows in _memo else []
    for i, r in enumerate(rows):
        yield built[i] if i < len(built) else _rim_rows(rows, r)


def surface_dimension(g: Graph) -> Optional[int]:
    """Dimension as a digital surface, or None.

    Zero for exactly two non-adjacent points; n > 0 when the graph is
    connected and every rim is an (n-1)-surface.
    """
    return _dimension(g._rows)


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


def _failing_deletion(rows: tuple[int, ...], d: int) -> Optional[int]:
    """First vertex whose deletion leaves a non-contractible graph, or
    None. Every rim of ``rows`` must be a (d-1)-sphere.

    For d = 1 the graph is a cycle when connected, and every deletion
    holds. For d = 2 every deletion holds when the graph is connected and
    ``3V - E == 6`` (chi = 2), and none does otherwise, so vertex 0 is the
    witness. Both shortcuts test connectivity because `_sphere_witness`
    comes here without testing it. For d >= 3 every deletion
    is decided on the parent rows, all of them share one rim table, seeded
    by `_seeded_rims`, and each greedy pass starts from the neighbors of
    the deleted vertex. The module docstring gives the five facts used
    here, and why the d = 2 formula does not extend to d >= 3.
    """
    full = (1 << len(rows)) - 1
    if d == 1 and connected(rows, full):
        return None
    if d == 2:
        edges = sum(r.bit_count() for r in rows) // 2
        return None if 3 * len(rows) - edges == 6 and connected(rows, full) else 0
    rims = _seeded_rims(rows)
    pending = full
    for v in range(len(rows)):
        if not pending >> v & 1:
            continue
        pending ^= 1 << v
        alive = full ^ (1 << v)
        verdict, tier, seq = decide(rows, alive, rims, rows[v])
        if not verdict:
            return v
        if tier == 1:
            pending ^= _rotated(rows, v, alive, seq, pending, rims)
    return None


def _sphere_witness(rows: tuple[int, ...], d: int) -> Optional[int]:
    """None when the non-empty ``rows`` are a d-sphere, else the first
    vertex ``v`` whose rim is not a (d-1)-sphere or, every rim being one,
    with ``G - v`` not contractible (vertex 0 at d = 0). The memo keeps the
    answer at the graph's own dimension; any other is computed afresh."""
    if d == 0:
        return None if len(rows) == 2 and not rows[0] else 0
    entry = _memo[rows] if _dimension(rows) == d else [None, [], _UNASKED]
    if entry[2] == _UNASKED:
        # a loop, not a generator expression: one frame less per dimension
        for i, rim in enumerate(_rims(rows)):
            if not _is_sphere(rim, d - 1):
                break
        else:
            i = _failing_deletion(rows, d)
        entry[2] = i
    return entry[2]


def _is_sphere(rows: tuple[int, ...], d: int) -> bool:
    """Is ``rows`` a d-sphere? Its dimension comes first (see the module)."""
    return _dimension(rows) == d and _sphere_witness(rows, d) is None


def is_n_sphere(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a digital n-sphere, naming as the witness the first vertex
    in label order whose rim or else whose deletion fails."""
    if n < 0:
        raise GraphError("sphere dimension must be >= 0")
    if g.order == 0:
        return ClassificationVerdict(KIND_NONE)
    i = _sphere_witness(g._rows, n)
    if i is not None:
        return ClassificationVerdict(KIND_NONE, None, g._labels[i])
    return ClassificationVerdict(KIND_SPHERE, n)


def is_n_manifold(g: Graph, n: int) -> ClassificationVerdict:
    """Recognize a closed digital n-manifold (every rim an (n-1)-sphere)."""
    if n < 1:
        raise GraphError("manifold dimension must be >= 1")
    if not connected(g._rows, (1 << g.order) - 1):
        return ClassificationVerdict(KIND_NONE, None, g._labels[0] if g.order else None)
    i = next((i for i, r in enumerate(_rims(g._rows)) if not _is_sphere(r, n - 1)), None)
    if i is not None:
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
    return _is_sphere(rows + (mask,), n)


def minimal_sphere(n: int) -> Graph:
    """Join of n+1 point pairs: the (2n+2)-vertex minimal n-sphere.

    Equivalently the complete multipartite graph with n+1 parts of size 2.
    """
    if n < 0:
        raise GraphError("sphere dimension must be >= 0")
    labels = tuple(f"s{i}{side}" for i in range(n + 1) for side in "ab")
    # each vertex meets every other but itself and its partner
    full = (1 << len(labels)) - 1
    return Graph(labels, tuple(full ^ 3 << (k & ~1) for k in range(len(labels))))


# the stand-ins of `_rim_rows`, by dimension
_SPHERE_ROWS = {d: minimal_sphere(d)._rows for d in (0, 1, 2)}


def classify(g: Graph, dimension: Optional[int] = None) -> ClassificationVerdict:
    """Best verdict for a graph, probing the surface dimension first.

    With an explicit ``dimension`` the recognizers run at that dimension
    only. Kind precedence: Sphere, then Manifold, then Surface.
    """
    d = surface_dimension(g) if dimension is None else dimension
    if d is None:
        # every rim a surface: the graph is disconnected (adjacent vertices
        # then have rims of one dimension), named by its smallest label
        i = next((i for i, r in enumerate(_rims(g._rows)) if _dimension(r) is None), 0)
        return ClassificationVerdict(KIND_NONE, None, g._labels[i] if g.order else None)
    sphere = is_n_sphere(g, d)
    if d == 0 or sphere.ok:
        return sphere
    manifold = is_n_manifold(g, d)
    if manifold.ok:
        return manifold
    if dimension is None or surface_dimension(g) == d:
        return ClassificationVerdict(KIND_SURFACE, d)
    return sphere
