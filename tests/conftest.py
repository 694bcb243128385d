"""Shared graph factories and independent brute-force oracles.

The oracles here deliberately avoid the package's canonical forms, memo
tables and search kernels: isomorphism is decided by trying permutations,
contractibility by literal recursion over deletions. They anchor the fast
implementations on small inputs.
"""

from __future__ import annotations

import itertools
import random

from digitopo.graph import Graph, build_graph, induced_subgraph, join, relabeled, rim


# ---------------------------------------------------------------------------
# factories


def cycle_graph(k: int, prefix: str = "c") -> Graph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return build_graph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def path_graph(k: int, prefix: str = "p") -> Graph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return build_graph(vs, [(vs[i], vs[i + 1]) for i in range(k - 1)])


def complete_graph(k: int, prefix: str = "k") -> Graph:
    vs = [f"{prefix}{i}" for i in range(k)]
    return build_graph(vs, list(itertools.combinations(vs, 2)))


def point_pair() -> Graph:
    return build_graph(["a", "b"])


def octahedron() -> Graph:
    g = join(point_pair(), point_pair())
    return join(g, point_pair())


def wheel(k: int) -> Graph:
    """Cycle of length k plus a hub adjacent to every cycle vertex."""
    c = cycle_graph(k)
    vs = list(c.vertices) + ["hub"]
    edges = list(c.edges()) + [(v, "hub") for v in c.vertices]
    return build_graph(vs, edges)


def chebyshev_block(k: int, dim: int = 3) -> Graph:
    """The k^dim cubes of a solid block, adjacent when they share a point."""
    pts = list(itertools.product(range(k), repeat=dim))
    label = {p: "q" + "_".join(map(str, p)) for p in pts}
    edges = [
        (label[p], label[q])
        for p, q in itertools.combinations(pts, 2)
        if max(abs(a - b) for a, b in zip(p, q)) == 1
    ]
    return build_graph([label[p] for p in pts], edges)


def dunce_hat() -> Graph:
    """Barycentric subdivision of the 8-vertex, 17-triangle dunce hat.

    The triangulation is a 9-gon whose boundary reads a a a^-1, each a
    subdivided 1-2-3-1, around an inner pentagon r0..r4. The subdivision
    (simplices adjacent when one contains the other) is a flag complex: 49
    vertices, Euler characteristic 1 and trivial homology, yet no vertex
    has a contractible rim.
    """
    return _glued_nine_gon(["1", "2", "3", "1", "2", "3", "1", "3", "2"])


def mod3_moore_space() -> Graph:
    """The same 9-gon with its boundary read a a a: a disk glued to a circle
    by a map of degree 3, so H_1 = Z/3 and GF(2) sees nothing."""
    return _glued_nine_gon(["1", "2", "3"] * 3)


def _glued_nine_gon(b: list[str]) -> Graph:
    """Barycentric subdivision of a 9-gon with boundary vertices ``b`` around
    an inner pentagon r0..r4."""
    arcs = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 0)]
    triangles = [("r0", "r1", "r2"), ("r0", "r2", "r3"), ("r0", "r3", "r4")]
    for j, arc in enumerate(arcs):
        triangles += [(b[p], b[q], f"r{j}") for p, q in zip(arc, arc[1:])]
        triangles.append((b[arc[-1]], f"r{j}", f"r{(j + 1) % 5}"))
    faces = {
        frozenset(face)
        for t in triangles
        for k in (1, 2, 3)
        for face in itertools.combinations(t, k)
    }
    name = {f: "".join(sorted(f)) for f in faces}
    edges = [(name[s], name[t]) for s in faces for t in faces if s < t]
    return build_graph(sorted(name.values()), edges)


def random_graph(rng: random.Random, n: int, p: float, prefix: str = "v") -> Graph:
    vs = [f"{prefix}{i}" for i in range(n)]
    edges = [(a, b) for a, b in itertools.combinations(vs, 2) if rng.random() < p]
    return build_graph(vs, edges)


def random_contractible_graph(rng: random.Random, n: int) -> Graph:
    """Grow a graph by attaching points over contractible rims."""
    from digitopo.homotopy import is_contractible

    g = build_graph(["g0"])
    for i in range(1, n):
        choices = list(g.vertices)
        for _ in range(30):
            size = rng.randint(1, min(4, len(choices)))
            s = rng.sample(choices, size)
            if is_contractible(induced_subgraph(g, s)):
                vs = list(g.vertices) + [f"g{i}"]
                es = list(g.edges()) + [(f"g{i}", w) for w in s]
                g = build_graph(vs, es)
                break
    return g


# ---------------------------------------------------------------------------
# oracles


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search; fine up to ~8 vertices."""
    if g.order != h.order or g.size != h.size:
        return False
    gv = sorted(g.vertices)
    hv = sorted(h.vertices)
    g_edges = {frozenset(e) for e in g.edges()}
    h_edges = {frozenset(e) for e in h.edges()}
    for perm in itertools.permutations(hv):
        m = dict(zip(gv, perm))
        if all(frozenset((m[a], m[b])) in h_edges for a, b in g_edges):
            return True
    return False


def brute_contractible(g: Graph) -> bool:
    """Literal recursion: some deletable vertex has a contractible rim and
    leaves a contractible graph. Exponential; keep inputs at 6 vertices or so."""
    if g.order == 0:
        return False
    if g.order == 1:
        return True
    for v in g.vertices:
        if brute_contractible(rim(g, v)):
            rest = [w for w in g.vertices if w != v]
            if brute_contractible(induced_subgraph(g, rest)):
                return True
    return False


def all_labeled_graphs(n: int, prefix: str = "v"):
    """Yield every labeled graph on n vertices (2^(n choose 2) of them)."""
    vs = [f"{prefix}{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        yield build_graph(vs, edges)


def small_graphs_out_of_label_order(max_n: int = 5):
    """Every labeled graph on at most max_n vertices, its vertex order the
    reverse of label order, so index and label tie-breaks cannot coincide."""
    for n in range(max_n + 1):
        reverse = {f"v{i}": f"v{n - 1 - i}" for i in range(n)}
        for g in all_labeled_graphs(n):
            yield relabeled(g, reverse)


def shuffled_copy(rng: random.Random, g: Graph) -> Graph:
    """Same graph under a random relabeling and vertex order."""
    names = list(g.vertices)
    new = [f"w{i}" for i in range(len(names))]
    rng.shuffle(new)
    m = dict(zip(names, new))
    vs = [m[v] for v in names]
    rng.shuffle(vs)
    return build_graph(vs, [(m[a], m[b]) for a, b in g.edges()])


def brick_wall_torus_cover():
    """Sixteen unit bricks tiling the flat 4-torus, rows offset by 1/2."""
    from fractions import Fraction

    from digitopo.covers import BoxCell, BoxCover

    bricks = []
    for r in range(4):
        off = Fraction(1, 2) if r % 2 else Fraction(0)
        for c in range(4):
            bricks.append(BoxCell.make([c + off, r], [c + 1 + off, r + 1]))
    return BoxCover.make(bricks, [4, 4], 2)


def aligned_grid_torus_cover():
    """Sixteen aligned unit squares on the flat 4-torus (not LCL)."""
    from digitopo.covers import BoxCell, BoxCover

    cells = [BoxCell.make([x, y], [x + 1, y + 1]) for x in range(4) for y in range(4)]
    return BoxCover.make(cells, [4, 4], 2)


def cube_faces_cover():
    """The six square faces of the unit cube, a cover of its boundary sphere."""
    from digitopo.covers import BoxCell, BoxCover

    faces = []
    for ax in range(3):
        for side in (0, 1):
            lo = [0, 0, 0]
            hi = [1, 1, 1]
            lo[ax] = hi[ax] = side
            faces.append(BoxCell.make(lo, hi))
    return BoxCover.make(faces, [None, None, None], 2)


def generated_box_covers(count: int, seed: int = 2024):
    """Valid LCL covers of a single box: 1-d partitions and 2-d brick walls.

    Brick rows alternate integer and half-integer cuts, so cuts of adjacent
    rows never align and no four cells share a corner.
    """
    from fractions import Fraction

    from digitopo.covers import BoxCell, BoxCover

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            # 1-d partition of [0, m]
            m = rng.randint(2, 6)
            cuts = sorted(
                rng.sample([Fraction(k, 2) for k in range(1, 2 * m)], rng.randint(1, m))
            )
            points = [Fraction(0)] + cuts + [Fraction(m)]
            cells = [BoxCell.make([a], [b]) for a, b in zip(points, points[1:])]
            out.append(BoxCover.make(cells, [None], 1))
        else:
            w = rng.randint(2, 4)
            rows = rng.randint(1, 3)
            cells = []
            for r in range(rows):
                if r % 2 == 0:
                    pool = [Fraction(k) for k in range(1, w)]
                else:
                    pool = [Fraction(2 * k + 1, 2) for k in range(w)]
                    pool = [c for c in pool if 0 < c < w]
                cuts = sorted(rng.sample(pool, rng.randint(0, len(pool))))
                points = [Fraction(0)] + cuts + [Fraction(w)]
                for a, b in zip(points, points[1:]):
                    cells.append(BoxCell.make([a, r], [b, r + 1]))
            out.append(BoxCover.make(cells, [None, None], 2))
    return out


def random_accepted_steps(rng: random.Random, g: Graph, want: int):
    """Sample up to ``want`` accepted contractible transformations on g.

    Yields (step, before, after) triples; each step is drawn from deletions
    of simple points/edges, attachments of simple edges, and attachments of
    points over random contractible rim sets.
    """
    from digitopo.homotopy import (
        AttachEdge,
        AttachPoint,
        DeleteEdge,
        DeletePoint,
        TransformationError,
        apply_transformation,
    )

    produced = 0
    attempts = 0
    fresh = 0
    while produced < want and attempts < want * 40:
        attempts += 1
        kind = rng.choice(["del-point", "del-edge", "att-edge", "att-point"])
        try:
            if kind == "del-point" and g.order > 1:
                step = DeletePoint(rng.choice(g.vertices))
            elif kind == "del-edge" and g.size:
                step = DeleteEdge(*rng.choice(g.edges()))
            elif kind == "att-edge" and g.order >= 2:
                u, v = rng.sample(g.vertices, 2)
                step = AttachEdge(u, v)
            elif kind == "att-point" and g.order >= 1:
                size = rng.randint(1, min(4, g.order))
                fresh += 1
                step = AttachPoint(f"n{fresh}", frozenset(rng.sample(g.vertices, size)))
            else:
                continue
            after = apply_transformation(g, step)
        except TransformationError:
            continue
        yield step, g, after
        produced += 1
        g = after
