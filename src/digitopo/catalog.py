"""Canonical digital manifolds: constructions, expected values, validation.

Entries are generated by deterministic constructions (lattice quotients for
the torus, Klein bottle and Moebius band; a free antipodal quotient for the
projective plane; joins for minimal spheres). Nothing is trusted: the first
access re-proves every expected property with the recognizers and the
invariants oracle, so a bad construction cannot slip through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .classify import is_n_manifold, is_n_sphere, is_n_disk, minimal_sphere
from .graph import Graph, GraphError, build_graph, components, induced_subgraph, rim
from .homotopy import is_contractible
from .invariants import HomologyProfile, _euler_and_homology, same_profile


@dataclass
class CatalogEntry:
    name: str
    graph: Graph
    expected: dict[str, Any]
    construction: str
    boundary: Optional[tuple[str, ...]] = None
    _report: Optional[dict[str, Any]] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# constructions


def _quotient(verts, offsets, rep, inside=lambda x, y: True) -> Graph:
    """The quotient on the representatives ``verts``, labelled "x,y" in that
    order: each joins ``rep`` of its neighbors at ``offsets`` that are
    ``inside`` the lattice. A point identified with its neighbor raises."""
    index = {p: i for i, p in enumerate(verts)}
    rows = [0] * len(verts)
    for i, (x, y) in enumerate(verts):
        for dx, dy in offsets:
            if not inside(x + dx, y + dy):
                continue
            j = index[rep(x + dx, y + dy)]
            if j == i:
                raise GraphError("degenerate identification")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(tuple(f"{x},{y}" for x, y in verts), tuple(rows))


def _torus16() -> Graph:
    """Quotient of the triangulated plane matching the brick-wall nerve.

    Unit bricks with rows offset by a half step tile the flat 4-torus; their
    intersection pattern is the triangular lattice with neighbor offsets
    (+-1,0), (0,+-1), (-1,+1), (+1,-1) quotiented by the translations
    (4,0) and (-2,4). The half-step offsets accumulate across the vertical
    period, which is where the -2 twist comes from.
    """
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)]

    def rep(x: int, y: int) -> tuple[int, int]:
        y2 = y % 4
        k = (y - y2) // 4
        return ((x + 2 * k) % 4, y2)

    return _quotient([(x, y) for y in range(4) for x in range(4)], offsets, rep)


def _klein16() -> Graph:
    """Glide quotient of the triangulated plane.

    In rotated coordinates (u, v) with u + v even, the triangular lattice
    has neighbors at (+-1, +-1) and (0, +-2), a set invariant under the
    glide (u, v) -> (u + 4, -v). Quotienting the 8 by 8 torus of such
    points by that glide leaves 16 vertices and reverses orientation, which
    is exactly the Klein identification.
    """
    offsets = [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 2), (0, -2)]

    def rep(u: int, v: int) -> tuple[int, int]:
        a = (u % 8, v % 8)
        b = ((u + 4) % 8, (-v) % 8)
        return min(a, b)

    verts = sorted({rep(u, v) for u in range(8) for v in range(8) if (u + v) % 2 == 0})
    return _quotient(verts, offsets, rep)


def _moebius12() -> tuple[Graph, tuple[str, ...]]:
    """Triangulated 3-row strip, glued end to end with an orientation flip.

    The glide (x, y) -> (x + y + 3, 2 - y) maps the triangular-lattice
    neighbor set {(+-1,0), (0,+-1), (-1,+1), (+1,-1)} to itself and squares
    to the translation x -> x + 8, so quotienting the strip 0 <= y <= 2 on
    x mod 8 by it yields a 12-vertex band with one boundary circle. Returns
    the graph and its boundary vertices (rows 0 and 2).
    """
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)]

    def rep(x: int, y: int) -> tuple[int, int]:
        a = (x % 8, y)
        b = ((x + y + 3) % 8, 2 - y)
        return min(a, b)

    verts = sorted({rep(x, y) for x in range(8) for y in range(3)})
    g = _quotient(verts, offsets, rep, lambda x, y: 0 <= y <= 2)
    boundary = tuple(f"{x},{y}" for x, y in verts if y in (0, 2))
    return g, boundary


def _rp11() -> Graph:
    """Projective plane on 11 points: a hub over a 5-cycle, glued to a second
    5-cycle so that every rim closes into a 5- or 6-cycle.

    This is the quotient of a 22-point antipodally symmetric 2-sphere by its
    free involution; the a-ring descends from the polar rings and the q-ring
    from the equator.
    """
    vs = ["p"] + [f"a{i}" for i in range(5)] + [f"q{i}" for i in range(5)]
    edges = []
    for i in range(5):
        edges.append(("p", f"a{i}"))
        edges.append((f"a{i}", f"a{(i + 1) % 5}"))
        edges.append((f"q{i}", f"q{(i + 1) % 5}"))
        for d in (0, 1, 2):
            edges.append((f"a{i}", f"q{(2 * i + d) % 5}"))
    return build_graph(vs, edges)


def _icosahedron() -> Graph:
    """Gyroelongated bipyramid form: two poles and two offset 5-rings."""
    vs = ["n", "s"] + [f"u{i}" for i in range(5)] + [f"d{i}" for i in range(5)]
    edges = []
    for i in range(5):
        edges.append(("n", f"u{i}"))
        edges.append(("s", f"d{i}"))
        edges.append((f"u{i}", f"u{(i + 1) % 5}"))
        edges.append((f"d{i}", f"d{(i + 1) % 5}"))
        edges.append((f"u{i}", f"d{i}"))
        edges.append((f"u{i}", f"d{(i + 1) % 5}"))
    return build_graph(vs, edges)


def _disk_path3() -> tuple[Graph, tuple[str, ...]]:
    g = build_graph(["p0", "p1", "p2"], [("p0", "p1"), ("p1", "p2")])
    return g, ("p0", "p2")


def _disk_oct5() -> tuple[Graph, tuple[str, ...]]:
    oct6 = minimal_sphere(2)
    return induced_subgraph(oct6, oct6.vertices[1:]), rim(oct6, oct6.vertices[0]).vertices


def _entries() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    for n in range(5):
        g = minimal_sphere(n)
        entries[f"sphere_min_{n}"] = CatalogEntry(
            name=f"sphere_min_{n}",
            graph=g,
            expected={
                "kind": "sphere",
                "dimension": n,
                "vertices": 2 * n + 2,
                "euler": 2 if n % 2 == 0 else 0,
                "betti_q": tuple([1] + [0] * (n - 1) + [1]) if n > 0 else (2,),
                "betti_z2": tuple([1] + [0] * (n - 1) + [1]) if n > 0 else (2,),
                "torsion": (),
            },
            construction="join of n+1 point pairs (complete multipartite, parts of size 2)",
        )

    entries["icosahedron"] = CatalogEntry(
        name="icosahedron",
        graph=_icosahedron(),
        expected={
            "kind": "sphere",
            "dimension": 2,
            "vertices": 12,
            "euler": 2,
            "betti_q": (1, 0, 1),
            "betti_z2": (1, 0, 1),
            "torsion": (),
        },
        construction="two poles over two offset 5-rings (all rims 5-cycles)",
    )

    entries["torus16"] = CatalogEntry(
        name="torus16",
        graph=_torus16(),
        expected={
            "kind": "manifold",
            "dimension": 2,
            "vertices": 16,
            "edges": 48,
            "euler": 0,
            "betti_q": (1, 2, 1),
            "betti_z2": (1, 2, 1),
            "torsion": (),
        },
        construction=(
            "triangular-lattice quotient with neighbor offsets (+-1,0), "
            "(0,+-1), (-1,+1), (+1,-1) by the translations (4,0) and "
            "(-2,4); equals the nerve of the brick-wall cover of the flat "
            "4-torus"
        ),
    )

    entries["klein16"] = CatalogEntry(
        name="klein16",
        graph=_klein16(),
        expected={
            "kind": "manifold",
            "dimension": 2,
            "vertices": 16,
            "euler": 0,
            "betti_q": (1, 1, 0),
            "betti_z2": (1, 2, 1),
            "torsion": ((), (2,), ()),
        },
        construction="same 4x4 triangular lattice with a glide identification (x -> -x across the vertical period)",
    )

    entries["rp11"] = CatalogEntry(
        name="rp11",
        graph=_rp11(),
        expected={
            "kind": "manifold",
            "dimension": 2,
            "vertices": 11,
            "euler": 1,
            "betti_q": (1, 0, 0),
            "betti_z2": (1, 1, 1),
            "torsion": ((), (2,), ()),
        },
        construction=(
            "free antipodal quotient of a 22-point symmetric 2-sphere: hub over "
            "a 5-cycle plus an equator 5-cycle, a_i adjacent to q_{2i..2i+2}"
        ),
    )

    moeb, mboundary = _moebius12()
    entries["moebius12"] = CatalogEntry(
        name="moebius12",
        graph=moeb,
        expected={
            "kind": "band",
            "vertices": 12,
            "euler": 0,
            "betti_q": (1, 1, 0),
            "betti_z2": (1, 1, 0),
            "torsion": (),
            "boundary_cycles": 1,
        },
        construction="3-row triangulated strip on Z4, ends glued with a vertical flip",
        boundary=mboundary,
    )

    d3, d3b = _disk_path3()
    entries["disk_path3"] = CatalogEntry(
        name="disk_path3",
        graph=d3,
        expected={"kind": "disk", "dimension": 1, "vertices": 3, "euler": 1},
        construction="3-vertex path; boundary is its two endpoints",
        boundary=d3b,
    )

    d5, d5b = _disk_oct5()
    entries["disk_oct5"] = CatalogEntry(
        name="disk_oct5",
        graph=d5,
        expected={"kind": "disk", "dimension": 2, "vertices": 5, "euler": 1},
        construction="minimal 2-sphere minus one vertex; boundary is the former rim",
        boundary=d5b,
    )

    return entries


_CATALOG: dict[str, CatalogEntry] = {}


def names() -> list[str]:
    _ensure()
    return sorted(_CATALOG)


def _ensure() -> None:
    if not _CATALOG:
        _CATALOG.update(_entries())


def get(name: str) -> CatalogEntry:
    """Fetch a catalog entry; validation runs on first access and is cached."""
    _ensure()
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(sorted(_CATALOG))}")
    entry = _CATALOG[name]
    if entry._report is None:
        report = validate(entry)
        if not report["ok"]:
            raise GraphError(f"catalog entry {name!r} failed validation: {report['failures']}")
        entry._report = report
    return entry


# ---------------------------------------------------------------------------
# validation


def _is_path_rim(r: Graph) -> bool:
    """Is ``r`` a 1-disk whose boundary is its degree-1 vertices?"""
    return is_n_disk(r, [w for w in r.vertices if r.degree(w) == 1], 1)


def _boundary_cycle_count(g: Graph, boundary: tuple[str, ...]) -> int:
    """Number of cycles induced by the boundary set (-1 when not 2-regular)."""
    sub = induced_subgraph(g, boundary)
    if any(sub.degree(v) != 2 for v in sub.vertices):
        return -1
    return len(components(sub))


def validate(entry: CatalogEntry) -> dict[str, Any]:
    """Re-prove every expected property; mismatches are reported, not raised."""
    g = entry.graph
    exp = entry.expected
    failures: list[str] = []
    checks: list[str] = []

    def check(label: str, ok: bool) -> None:
        checks.append(label)
        if not ok:
            failures.append(label)

    check(f"vertices == {exp['vertices']}", g.order == exp["vertices"])
    if "edges" in exp:
        check(f"edges == {exp['edges']}", g.size == exp["edges"])
    euler, prof = _euler_and_homology(g)
    check(f"euler == {exp['euler']}", euler == exp["euler"])

    if "betti_q" in exp:
        want = HomologyProfile(
            tuple(exp["betti_q"]),
            tuple(exp["betti_z2"]),
            tuple(tuple(t) for t in exp.get("torsion", ())) or ((),) * len(exp["betti_q"]),
        )
        check("homology profile", same_profile(prof, want))

    kind = exp["kind"]
    # a band or disk without a boundary fails its boundary checks
    boundary = entry.boundary or ()
    if kind == "sphere":
        check(
            f"is_n_sphere(dim {exp['dimension']})",
            is_n_sphere(g, exp["dimension"]).ok,
        )
    elif kind == "manifold":
        check(
            f"is_n_manifold(dim {exp['dimension']})",
            is_n_manifold(g, exp["dimension"]).ok,
        )
    elif kind == "band":
        interior = [v for v in g.vertices if v not in boundary]
        # the recognizers' own shapes: a 1-sphere is a chordless cycle of at
        # least 4 vertices, a 1-disk a path of at least 3 whose ends cone
        # into a 1-sphere
        check("interior rims are cycles", all(is_n_sphere(rim(g, v), 1).ok for v in interior))
        check(
            "boundary rims are paths",
            all(_is_path_rim(rim(g, v)) for v in boundary),
        )
        check(
            f"boundary forms {exp['boundary_cycles']} cycle(s)",
            _boundary_cycle_count(g, boundary) == exp["boundary_cycles"],
        )
    elif kind == "disk":
        check(
            f"is_n_disk(dim {exp['dimension']})",
            is_n_disk(g, boundary, exp["dimension"]),
        )
        check("contractible", is_contractible(g))

    return {
        "name": entry.name,
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "construction": entry.construction,
    }
