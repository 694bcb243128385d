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


def pendant_dunce_hat(k: int, step: int) -> Graph:
    """The dunce hat with ``k`` pendant vertices, hung at every ``step``-th
    hat vertex. Each pendant is a simple point, so the exact search visits
    one node per set of deleted pendants before it refutes the graph."""
    hat = dunce_hat()
    pendants = tuple(f"p{i}" for i in range(k))
    hung = tuple(zip(pendants, hat.vertices[::step]))
    return build_graph(hat.vertices + pendants, hat.edges() + hung)


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


def eager_greedy(n: int, rows, tie=None, start=None) -> tuple[int, list[int]]:
    """The greedy pass as it was before it became lazy, kept as the
    reference for `_pure._greedy`'s ``(alive, order)``: every vertex is
    tested up front, every neighbor of a deleted vertex again, and the heap
    holds only vertices that tested simple. Rims are decided on their own
    dense rows by the kernel (whose verdicts the other oracles check), with
    no table of rim verdicts."""
    from heapq import heapify, heappop, heappush

    from digitopo._kernels import _pure

    def simple(v, alive):
        rim = rows[v] & alive
        return _pure.contractible_on(rows, rim)

    if tie is None:
        tie = range(n)
    alive = (1 << n) - 1 if start is None else start
    simple_set = {v for v in _pure._bits(alive) if simple(v, alive)}
    heap = [((rows[v] & alive).bit_count(), tie[v], v) for v in simple_set]
    heapify(heap)
    order: list[int] = []
    while heap:
        v = heappop(heap)[2]
        if v not in simple_set:
            continue
        order.append(v)
        alive ^= 1 << v
        simple_set.discard(v)
        for u in _pure._bits(rows[v] & alive):
            if simple(u, alive):
                simple_set.add(u)
                heappush(heap, ((rows[u] & alive).bit_count(), tie[u], u))
            else:
                simple_set.discard(u)
    return alive, order


def labelled_model_graph(model) -> Graph:
    """The digitizer's model graph as it was built from label pairs, kept as
    the reference for `model_graph`'s rows: cubes within Chebyshev distance
    one are joined by their labels, and `build_graph` indexes the sorted
    labels."""
    labels = {c: ",".join(str(x) for x in c) for c in model.cubes}
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=model.ambient) if any(o)]
    edges = set()
    for c in model.cubes:
        for o in offsets:
            d = tuple(a + b for a, b in zip(c, o))
            if d in model.cubes:
                edges.add(tuple(sorted((labels[c], labels[d]))))
    return build_graph(sorted(labels.values()), sorted(edges))


def all_labeled_graphs(n: int, prefix: str = "v"):
    """Yield every labeled graph on n vertices (2^(n choose 2) of them)."""
    vs = [f"{prefix}{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        yield build_graph(vs, edges)


def small_graphs_out_of_label_order(max_n: int = 5):
    """Every labeled graph on at most max_n vertices, built from a vertex
    list in the reverse of label order, which `Graph` puts back in label
    order: a tie-break that followed the list instead would show."""
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


def _half_step(cover):
    """Half the finest lattice step of a cover's corners and periods: every
    intersection component has its ends on the lattice, so samples at the
    half step see each component and each gap between two of them."""
    from fractions import Fraction
    from math import lcm

    coords = [x for c in cover.cells for x in c.lo + c.hi]
    coords += [per for per in cover.periods if per is not None]
    return Fraction(1, 2 * lcm(*(Fraction(x).denominator for x in coords)))


def _sampled_pieces(cells, period, ax: int, h) -> list[tuple]:
    """Components of the common intersection of the cells on axis ``ax``,
    as sorted (lo, hi) pairs with lo in [0, period) on a periodic axis,
    found by testing every sample point at step ``h``."""
    if period is None:
        start = min(c.lo[ax] for c in cells)
        count = int((max(c.hi[ax] for c in cells) - start) / h) + 1

        def inside(x) -> bool:
            return all(c.lo[ax] <= x <= c.hi[ax] for c in cells)

    else:
        start, count = 0, int(period / h)

        def inside(x) -> bool:
            return all((x - c.lo[ax]) % period <= c.hi[ax] - c.lo[ax] for c in cells)

    hits = [inside(start + k * h) for k in range(count)]
    runs: list[list[int]] = []
    for k, hit in enumerate(hits):
        if hit and k and hits[k - 1]:
            runs[-1][1] = k
        elif hit:
            runs.append([k, k])
    if period is not None and len(runs) > 1 and hits[0] and hits[-1]:
        last = runs.pop()
        runs[0] = [last[0], runs[0][1] + count]
    return sorted((start + a * h, start + b * h) for a, b in runs)


def _sampled_intersection(cover, indices, h):
    """Per-axis components of the cells' common intersection, or None."""
    cells = [cover.cells[i] for i in indices]
    axes = [_sampled_pieces(cells, per, ax, h) for ax, per in enumerate(cover.periods)]
    return None if any(not pieces for pieces in axes) else axes


def brute_lcl(cover) -> dict:
    """LCL report of a cover, as `LclReport.to_obj` gives it, by trying
    every pairwise-meeting subfamily of two or more cells: LL on each one
    that shares a point, LC on each maximal one that shares none."""
    h = _half_step(cover)
    m = len(cover.cells)
    meets = {
        (i, j): _sampled_intersection(cover, (i, j), h) is not None
        for i, j in itertools.combinations(range(m), 2)
    }
    found = []
    for k in range(2, m + 1):
        # a subfamily sharing a point meets pairwise; none of k means none above
        cliques = [
            sub
            for sub in itertools.combinations(range(m), k)
            if all(meets[pair] for pair in itertools.combinations(sub, 2))
        ]
        if not cliques:
            break
        for sub in cliques:
            axes = _sampled_intersection(cover, sub, h)
            if axes is None:
                if not any(
                    all(meets[tuple(sorted((i, j)))] for i in sub) for j in range(m) if j not in sub
                ):
                    found.append((sub, "LC", "pairwise intersecting subfamily has no common point"))
                continue
            if any(len(pieces) != 1 for pieces in axes):
                found.append((sub, "LL-dimension", "intersection is not a single box"))
                continue
            box = [pieces[0] for pieces in axes]
            dim = sum(1 for lo, hi in box if hi > lo)
            if k > cover.n + 1:
                detail = f"{k} cells meet but only {cover.n + 1} may share a point"
                found.append((sub, "LL-dimension", detail))
            elif dim != cover.n + 1 - k:
                detail = f"intersection has dimension {dim}, expected {cover.n + 1 - k}"
                found.append((sub, "LL-dimension", detail))
            for i in sub:
                cell = cover.cells[i]
                pinned = any(
                    cell.lo[ax] < cell.hi[ax]
                    and lo == hi
                    and any(
                        lo == facet or (per is not None and (lo - facet) % per == 0)
                        for facet in (cell.lo[ax], cell.hi[ax])
                    )
                    for ax, ((lo, hi), per) in enumerate(zip(box, cover.periods))
                )
                if not pinned:
                    detail = f"intersection not inside the boundary of cell {i}"
                    found.append((sub, "LL-boundary", detail))
    found.sort()
    return {
        "verdict": not found,
        "violations": [{"indices": list(s), "clause": c, "detail": d} for s, c, d in found],
    }


def brute_nerve(cover) -> Graph:
    """Intersection graph from one sampled intersection per pair of cells."""
    h = _half_step(cover)
    labels = [f"c{i}" for i in range(len(cover.cells))]
    edges = [
        (labels[i], labels[j])
        for i, j in itertools.combinations(range(len(labels)), 2)
        if _sampled_intersection(cover, (i, j), h) is not None
    ]
    return build_graph(labels, edges)


def brute_trace(cover, i: int):
    """Boundary trace of cell i as ``(cells, isomorphic)``, or None where
    `boundary_trace_cover` must refuse: no neighbours, a trace that is not
    one box, or a trace of the wrong dimension. Cells are (lo, hi) tuples."""
    from digitopo.covers import BoxCell, BoxCover, CoverError

    h = _half_step(cover)
    neighbors, boxes = [], []
    for j in range(len(cover.cells)):
        axes = None if j == i else _sampled_intersection(cover, (i, j), h)
        if axes is None:
            continue
        if any(len(pieces) != 1 for pieces in axes):
            return None
        neighbors.append(j)
        boxes.append(BoxCell(*zip(*[pieces[0] for pieces in axes])))
    if not boxes:
        return None
    try:
        traced = BoxCover.make(boxes, cover.periods, cover.n - 1)
    except CoverError:
        return None
    induced = build_graph(
        [f"c{j}" for j in neighbors],
        [
            (f"c{a}", f"c{b}")
            for a, b in itertools.combinations(neighbors, 2)
            if _sampled_intersection(cover, (a, b), h) is not None
        ],
    )
    cells = [(c.lo, c.hi) for c in traced.cells]
    return cells, brute_isomorphic(induced, brute_nerve(traced))


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


def random_box_covers(count: int, seed: int = 7):
    """Seeded random covers, most of them not LCL: 1-3 ambient axes, each
    Euclidean or periodic (period 2, 3 or 4), two to seven cells of one
    dimension with corners on the half-integer lattice."""
    from fractions import Fraction

    from digitopo.covers import BoxCell, BoxCover

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.randint(1, 3)
        n = rng.randint(0, p)
        periods = [rng.choice([None, None, 2, 3, 4]) for _ in range(p)]
        cells = []
        for _ in range(rng.randint(2, 7)):
            fat = rng.sample(range(p), n)
            lo = [Fraction(rng.randint(0, 7), 2) for _ in range(p)]
            hi = list(lo)
            for ax in fat:
                longest = 4 if periods[ax] is None else 2 * periods[ax] - 1
                hi[ax] += Fraction(rng.randint(1, min(4, longest)), 2)
            cells.append(BoxCell.make(lo, hi))
        out.append(BoxCover.make(cells, periods, n))
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
