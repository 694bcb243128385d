"""Sphere, manifold, surface and disk recognizers."""

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    octahedron,
    path_graph,
    random_graph,
    shuffled_copy,
    small_graphs_out_of_label_order,
    wheel,
)
from digitopo import _kernels as kernels
from digitopo import classify as recognizers
from digitopo._kernels._pure import _bits, subgraph_rows
from digitopo.classify import (
    ClassificationVerdict,
    classify,
    is_n_disk,
    is_n_manifold,
    is_n_sphere,
    minimal_sphere,
    surface_dimension,
)
from digitopo.graph import (
    Graph,
    GraphError,
    build_graph,
    canonical_key,
    induced_subgraph,
    is_connected,
    join,
    relabeled,
    rim,
)
from digitopo.homotopy import is_contractible


class TestSurfaceDimension:
    def test_two_points(self):
        assert surface_dimension(build_graph(["a", "b"])) == 0

    def test_cycles_are_one_surfaces(self):
        for k in (4, 5, 6, 9):
            assert surface_dimension(cycle_graph(k)) == 1

    def test_triangle_is_not_a_surface(self):
        assert surface_dimension(complete_graph(3)) is None

    def test_point_is_not_a_surface(self):
        assert surface_dimension(build_graph(["a"])) is None

    def test_octahedron(self):
        assert surface_dimension(octahedron()) == 2


class TestSpheres:
    def test_c4_is_1_sphere(self):
        v = is_n_sphere(cycle_graph(4), 1)
        assert v.kind == "Sphere" and v.dimension == 1 and v.failing_witness is None

    def test_c3_is_not_a_sphere(self):
        v = is_n_sphere(complete_graph(3), 1)
        assert v.kind == "None" and v.failing_witness is not None

    def test_octahedron_is_2_sphere(self):
        assert is_n_sphere(octahedron(), 2).ok

    def test_eight_vertex_join_is_3_sphere(self):
        s0 = build_graph(["a", "b"])
        g = join(join(s0, build_graph(["c", "d"])), join(build_graph(["e", "f"]), build_graph(["g", "h"])))
        assert g.order == 8
        assert is_n_sphere(g, 3).ok

    def test_wrong_dimension_rejected(self):
        assert not is_n_sphere(cycle_graph(4), 2).ok
        assert not is_n_sphere(octahedron(), 1).ok

    def test_verdict_witness_discipline(self):
        good = is_n_sphere(cycle_graph(4), 1)
        bad = is_n_sphere(path_graph(4), 1)
        assert good.failing_witness is None
        assert bad.kind == "None" and bad.failing_witness is not None

    def test_negative_dimension_rejected(self):
        with pytest.raises(GraphError):
            is_n_sphere(cycle_graph(4), -1)

    def test_zero_sphere_witness_is_the_first_label(self):
        g = build_graph(["c", "b", "a"], [("a", "b")])
        assert is_n_sphere(g, 0).to_obj() == {"kind": "None", "dimension": None, "witness": "a"}
        assert classify(g, 0) == is_n_sphere(g, 0)
        empty = build_graph([])
        assert is_n_sphere(empty, 0).failing_witness is None
        assert classify(empty, 0) == is_n_sphere(empty, 0)
        assert is_n_sphere(build_graph(["b", "a"]), 0).ok


class TestManifolds:
    def test_octahedron(self):
        assert is_n_manifold(octahedron(), 2).ok

    def test_torus16(self):
        from digitopo.catalog import get

        assert is_n_manifold(get("torus16").graph, 2).ok

    def test_wheel_w5_fails_with_rim_vertex_witness(self):
        g = wheel(5)
        v = is_n_manifold(g, 2)
        assert v.kind == "None"
        # the hub's rim is a 5-cycle (a valid 1-sphere); the failures are the
        # cycle vertices, whose rims are paths
        assert v.failing_witness in {f"c{i}" for i in range(5)}

    def test_sphere_implies_manifold_implies_surface(self):
        graphs = [cycle_graph(4), cycle_graph(6), octahedron(), minimal_sphere(3)]
        for g in graphs:
            d = surface_dimension(g)
            assert d is not None
            if is_n_sphere(g, d).ok:
                assert is_n_manifold(g, d).ok
                assert surface_dimension(g) == d


class TestDisks:
    def test_path_with_endpoints(self):
        assert is_n_disk(path_graph(3), ["p0", "p2"], 1)

    def test_point_with_empty_boundary_dim0(self):
        assert not is_n_disk(build_graph(["a"]), [], 0)

    def test_octahedron_minus_vertex(self):
        g = octahedron()
        v = g.vertices[0]
        boundary = rim(g, v).vertices
        rest = induced_subgraph(g, [w for w in g.vertices if w != v])
        assert is_n_disk(rest, boundary, 2)

    def test_boundary_must_be_subset(self):
        with pytest.raises(GraphError):
            is_n_disk(path_graph(3), ["nope"], 1)

    def test_wrong_boundary_fails(self):
        assert not is_n_disk(path_graph(3), ["p0", "p1"], 1)


class TestMinimalSphere:
    def test_sizes(self):
        for n in range(5):
            g = minimal_sphere(n)
            assert g.order == 2 * n + 2
            assert g.size == (2 * n + 2) * n  # 2n-regular on 2n+2 vertices

    def test_zero_sphere(self):
        g = minimal_sphere(0)
        assert g.order == 2 and g.size == 0

    def test_one_sphere_is_c4(self):
        assert canonical_key(minimal_sphere(1)) == canonical_key(cycle_graph(4))

    def test_recognized_up_to_three(self):
        for n in range(4):
            assert is_n_sphere(minimal_sphere(n), n).ok

    def test_rims_are_smaller_minimal_spheres(self):
        for n in range(1, 4):
            g = minimal_sphere(n)
            want = canonical_key(minimal_sphere(n - 1))
            for v in g.vertices:
                assert canonical_key(rim(g, v)) == want

    def test_join_law_small(self):
        for a in range(3):
            for b in range(3):
                if a + b + 1 <= 3:
                    g = join(minimal_sphere(a), minimal_sphere(b))
                    assert is_n_sphere(g, a + b + 1).ok, (a, b)

    def test_minus_vertex_contractible_and_disklike(self):
        for n in range(1, 4):
            g = minimal_sphere(n)
            for v in g.vertices:
                rest = induced_subgraph(g, [w for w in g.vertices if w != v])
                assert is_contractible(rest)
                assert is_n_disk(rest, rim(g, v).vertices, n)


class TestManifoldMinusContractible:
    def test_deleting_contractible_pieces_matches_deleting_a_point(self):
        """On a manifold, removing any contractible induced subgraph leaves
        the same Euler characteristic and Betti numbers as removing one
        vertex."""
        import random

        from digitopo.catalog import get
        from digitopo.invariants import euler_characteristic, homology, same_profile

        rng = random.Random(55)
        for name in ("torus16", "klein16"):
            m = get(name).graph
            v = sorted(m.vertices)[0]
            m_minus_v = induced_subgraph(m, [w for w in m.vertices if w != v])
            eu = euler_characteristic(m_minus_v)
            prof = homology(m_minus_v)
            found = 0
            while found < 4:
                size = rng.randint(2, 4)
                seed = rng.choice(m.vertices)
                pool = [seed]
                while len(pool) < size:
                    nxt = rng.choice(m.neighbors(rng.choice(pool)))
                    if nxt not in pool:
                        pool.append(nxt)
                h = induced_subgraph(m, pool)
                if not is_contractible(h):
                    continue
                found += 1
                m_minus_h = induced_subgraph(m, [w for w in m.vertices if w not in set(pool)])
                assert euler_characteristic(m_minus_h) == eu, (name, pool)
                assert same_profile(homology(m_minus_h), prof), (name, pool)


class TestClassify:
    def test_probing(self):
        assert classify(cycle_graph(5)).kind == "Sphere"
        assert classify(octahedron()).kind == "Sphere"
        assert classify(complete_graph(3)).kind == "None"

    def test_manifold_not_sphere(self):
        from digitopo.catalog import get

        v = classify(get("torus16").graph)
        assert v.kind == "Manifold" and v.dimension == 2

    @pytest.mark.parametrize("other", [cycle_graph(4, "d"), octahedron()])
    def test_disconnected_surfaces_name_the_smallest_label(self, other):
        """Every rim a surface but the graph disconnected: no dimension, and
        the witness is the smallest label, as for `is_n_manifold`."""
        c4 = cycle_graph(4)
        g = build_graph(c4.vertices + other.vertices, c4.edges() + other.edges())
        assert surface_dimension(g) is None
        v = classify(g)
        assert v.to_obj() == {"kind": "None", "dimension": None, "witness": min(g.vertices)}
        assert v.failing_witness == is_n_manifold(g, 1).failing_witness

    def test_verdict_serialization(self):
        v = ClassificationVerdict("Sphere", 2, None)
        assert v.to_obj() == {"kind": "Sphere", "dimension": 2, "witness": None}


# ---------------------------------------------------------------------------
# memo keys are exact adjacency rows, which a graph's labels fix: the same
# labels in another list order build the same rows, and a relabeling
# permutes them; the answers must follow the labels


def rim_dimension(g):
    """Surface dimension by literal rim recursion, nothing memoized."""
    if g.order == 2 and g.size == 0:
        return 0
    if g.order == 0 or not is_connected(g):
        return None
    dims = {rim_dimension(rim(g, v)) for v in g.vertices}
    return dims.pop() + 1 if len(dims) == 1 and None not in dims else None


def rim_sphere(g, n):
    """The n-sphere definition by literal rim recursion, nothing memoized
    above the contractibility kernel."""
    if n <= 0:
        return n == 0 and g.order == 2 and g.size == 0
    if g.order == 0 or not is_connected(g):
        return False
    return all(rim_sphere(rim(g, v), n - 1) for v in g.vertices) and all(
        is_contractible(induced_subgraph(g, [w for w in g.vertices if w != v]))
        for v in g.vertices
    )


def memo_corpus():
    from digitopo.catalog import get, names

    yield from small_graphs_out_of_label_order(5)
    for name in names():
        yield get(name).graph
    for n in range(1, 5):
        yield minimal_sphere(n)


class TestRowKeyedMemo:
    def test_vertex_order_does_not_change_the_verdict(self):
        for g in memo_corpus():
            listed = build_graph(tuple(reversed(g.vertices)), g.edges())
            # labels stay, so the rows and even the witness agree
            assert listed._rows == g._rows and classify(g) == classify(listed), g.edges()
            flipped = relabeled(g, dict(zip(g.vertices, reversed(g.vertices))))
            want, got = classify(g), classify(flipped)
            assert (got.kind, got.dimension) == (want.kind, want.dimension), g.edges()

    def test_agrees_with_unmemoized_rim_recursion(self):
        for g in memo_corpus():
            assert surface_dimension(g) == rim_dimension(g), g.edges()
            for n in range(5):
                assert is_n_sphere(g, n).ok == rim_sphere(g, n), (n, g.edges())

    @settings(max_examples=120, deadline=None)
    @given(st.integers(6, 9), st.floats(0.2, 0.9), st.randoms(use_true_random=False))
    def test_random_graphs_agree_with_unmemoized_rim_recursion(self, n, p, rnd):
        g = shuffled_copy(rnd, random_graph(rnd, n, p))
        assert surface_dimension(g) == rim_dimension(g), g.edges()
        for d in (1, 2, 3):
            assert is_n_sphere(g, d).ok == rim_sphere(g, d), (d, g.edges())
            failing = [v for v in sorted(g.vertices) if not rim_sphere(rim(g, v), d - 1)]
            manifold = is_n_manifold(g, d)
            assert manifold.ok == (is_connected(g) and not failing), (d, g.edges())
            if not is_connected(g):
                assert manifold.failing_witness == min(g.vertices), (d, g.edges())
            elif failing:
                assert manifold.failing_witness == failing[0], (d, g.edges())

    def test_memo_is_capped_like_the_kernel_memo(self, monkeypatch):
        from digitopo import classify as recognizers
        from digitopo._kernels import _pure

        monkeypatch.setattr(_pure, "_MEMO_CAP", 3)
        recognizers.clear_caches()
        for n in range(1, 5):
            assert is_n_sphere(minimal_sphere(n), n).ok
            assert not is_n_sphere(minimal_sphere(n), n + 1).ok
            assert len(recognizers._memo) <= 3


# ---------------------------------------------------------------------------
# the deletion clause runs on the parent rows with one rim table per sphere
# test; the verdicts must be those of dense rows for every G - v


def grown(g, order, seed):
    """Grow ``g`` to ``order`` vertices by seeded edge-to-point replacements,
    which keep the homotopy and manifold type."""
    from digitopo.transform import fresh_label, r_transform

    rng = random.Random(seed)
    while g.order < order:
        u, v = rng.choice(g.edges())
        g, _ = r_transform(g, u, v, fresh_label(g))
    return g


def dense_failing_deletion(rows, d):
    """The deletion clause on dense rows for every G - v, as a reference;
    it uses no fact about the rims, so it ignores the dimension ``d``."""
    full = (1 << len(rows)) - 1
    for i in range(len(rows)):
        if not kernels.contractible_on(rows, full ^ (1 << i)):
            return i
    return None


def clause_corpus():
    """(graph, the kinds it may classify as) for the catalog graphs, grown
    2- and 3-spheres with their negatives (one edge added, one vertex
    deleted), and grown catalog surfaces, whose every G - v fails."""
    from digitopo.catalog import get, names

    rng = random.Random(21)
    for name in names():
        yield get(name).graph, None
    for dim, sizes in ((2, (12, 20, 30, 40)), (3, (10, 16, 24))):
        for order in sizes:
            g = grown(minimal_sphere(dim), order, rng.getrandbits(32))
            yield g, {"Sphere"}
            vs = g.vertices
            u, v = rng.choice([(a, b) for a in vs for b in vs if a < b and not g.has_edge(a, b)])
            yield build_graph(vs, list(g.edges()) + [(u, v)]), {"None", "Surface"}
            x = rng.choice(vs)
            yield induced_subgraph(g, [w for w in vs if w != x]), {"None", "Surface"}
    for name in ("torus16", "klein16", "rp11"):
        yield grown(get(name).graph, 30, rng.getrandbits(32)), {"Manifold"}


def verdicts(g):
    recognizers.clear_caches()
    kernels.clear_caches()
    out = [classify(g)]
    for d in (1, 2, 3):
        out += [is_n_sphere(g, d), is_n_manifold(g, d)]
    return out


class TestDeletionClause:
    def test_verdicts_match_dense_rows_for_every_deletion(self, monkeypatch):
        corpus = [g for g, _ in clause_corpus()]
        got = [verdicts(g) for g in corpus]
        monkeypatch.setattr(recognizers, "_failing_deletion", dense_failing_deletion)
        for g, verdict in zip(corpus, got):
            assert verdicts(g) == verdict, g.edges()

    def test_kinds_of_the_corpus(self):
        for g, kinds in clause_corpus():
            assert kinds is None or classify(g).kind in kinds, g.edges()


# ---------------------------------------------------------------------------
# the deletion clause starts from facts the rim clause proved; each must
# agree with a decision that does not use them


def spheres_for_clause_facts():
    rng = random.Random(5)
    for dim, sizes in ((1, (4, 7, 12)), (2, (6, 15, 30)), (3, (8, 14, 24))):
        for order in sizes:
            yield grown(minimal_sphere(dim), order, rng.getrandbits(32))


def all_rows(n):
    """Adjacency rows of every labeled graph on ``n`` vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for edges in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if edges >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield tuple(rows)


def replay_rotations(rows, rims):
    """Rebuild every order that `_rotated` certifies from a greedy pass
    reducing some ``G - v`` to a point, and replay it on dense rows: each
    deleted vertex has a contractible rim, and one vertex is left. Returns
    the number of orders replayed."""
    from digitopo._kernels._pure import _bits, _greedy

    n, full = len(rows), (1 << len(rows)) - 1
    replayed = 0
    for v in range(n):
        alive = full ^ (1 << v)
        rest, seq = _greedy(rows, alive, rims=rims)
        if not rest or rest & (rest - 1):
            continue
        for s in _bits(recognizers._rotated(rows, v, alive, seq, alive, rims)):
            replayed += 1
            left = full ^ (1 << s)
            for u in [v] + [u for u in seq if u != s]:
                assert kernels.contractible_on(rows, rows[u] & left), (rows, v, s)
                left ^= 1 << u
            assert left == rest, (rows, v, s)
    return replayed


def dense_sphere_1(n, rows):
    """The 1-sphere clauses on dense rows: connected, every rim two
    non-adjacent vertices, every G - v contractible."""
    full = (1 << n) - 1
    return (
        kernels.connected(rows, full)
        and all(r.bit_count() == 2 and not rows[(r & -r).bit_length() - 1] & r for r in rows)
        and all(kernels.contractible_on(rows, full ^ (1 << v)) for v in range(n))
    )


class TestSphereClauseFacts:
    def test_seeded_rims_match_contractible_within(self):
        """Every seeded verdict is the dense decision of the rim it keys."""
        for g in spheres_for_clause_facts():
            seeded = recognizers._seeded_rims(g._rows)
            assert len(seeded) > g.order
            for mask, verdict in seeded.items():
                dense = kernels.contractible_on(g._rows, mask)
                assert dense is verdict, (g.edges(), mask)

    def test_deletion_passes_start_from_the_neighbors(self):
        """Every ``G - v`` of a grown sphere gets the same decision (verdict,
        tier and order) when its pass starts from the neighbors of ``v``, as
        `_failing_deletion` runs it, as when it starts from every vertex."""
        rng = random.Random(13)
        decisions = 0
        for dim in (1, 2, 3):
            for order in (30, 45, 60):
                g = grown(minimal_sphere(dim), order, rng.getrandbits(32))
                rows, full = g._rows, (1 << g.order) - 1
                rims, started = recognizers._seeded_rims(rows), recognizers._seeded_rims(rows)
                for v in range(g.order):
                    alive = full ^ (1 << v)
                    want = kernels.decide(rows, alive, rims)
                    assert kernels.decide(rows, alive, started, rows[v]) == want, (dim, v)
                    decisions += 1
        assert decisions == 3 * (30 + 45 + 60)

    def test_rotated_orders_replay_on_dense_rows(self):
        rng = random.Random(8)
        bigger = [grown(minimal_sphere(d), o, rng.getrandbits(32)) for d, o in ((2, 120), (3, 60))]
        rotated = 0
        for g in list(spheres_for_clause_facts()) + bigger:
            rotated += replay_rotations(g._rows, recognizers._seeded_rims(g._rows))
        assert rotated > 1000

    def test_rotation_holds_on_every_small_graph(self):
        """Without the sphere facts, with rim verdicts decided as they come."""
        rotated = 0
        for n in range(3, 7):
            for rows in all_rows(n):
                if kernels.connected(rows, (1 << n) - 1):
                    rotated += replay_rotations(rows, {})
        assert rotated > 10000

    def test_one_sphere_clause_matches_dense_rows(self):
        recognizers.clear_caches()
        for n in range(7):
            for rows in all_rows(n):
                assert recognizers._is_sphere(rows, 1) == dense_sphere_1(n, rows), rows
        for k in range(4, 41):
            c = cycle_graph(k)
            assert recognizers._is_sphere(c._rows, 1) and dense_sphere_1(k, c._rows)

    def test_cones_and_small_graphs_keep_their_verdicts(self):
        """Every graph on at most five vertices: manifold verdicts, and the
        witness of a graph that is no surface, agree with the literal rim
        recursion, which has no cone shortcut (`TestRowKeyedMemo` compares
        surface dimensions and sphere verdicts on the same graphs)."""
        for g in small_graphs_out_of_label_order(5):
            dim = rim_dimension(g)
            if kernels.connected(g._rows, (1 << g.order) - 1) and any(
                g.degree(v) == g.order - 1 for v in g.vertices
            ):
                assert dim is None and classify(g).kind == "None", g.edges()
            if dim is None:
                first = next((v for v in sorted(g.vertices) if rim_dimension(rim(g, v)) is None), None)
                assert classify(g).failing_witness == first, g.edges()
            for n in range(1, 5):
                assert is_n_manifold(g, n).ok == (
                    g.order > 0
                    and is_connected(g)
                    and all(rim_sphere(rim(g, v), n - 1) for v in g.vertices)
                ), (n, g.edges())


# ---------------------------------------------------------------------------
# at d = 2 the deletion clause is Euler's formula (3V - E = 6 on a connected
# graph); a pass-based decision of every G - v is the oracle


def oracle_failing_deletion(rows, order):
    """First vertex of ``order`` whose ``G - v`` `_pure.decide` refutes."""
    full = (1 << len(rows)) - 1
    return next((v for v in order if not kernels.decide(rows, full ^ (1 << v))[0]), None)


def rims_are_long_cycles(rows):
    """Is every rim a cycle of at least four vertices? Then the clique
    complex is a closed flag surface."""
    return all(
        r.bit_count() >= 4
        and all((rows[b] & r).bit_count() == 2 for b in _bits(r))
        and kernels.connected(rows, r)
        for r in rows
    )


def flipped_surfaces(g, flips, seed):
    """The rows of ``flips`` flag surfaces, each one seeded edge flip away
    from the one before, starting from ``g``: the edge uv of the triangles
    uvw and uvx becomes wx, when w !~ x and every rim stays a cycle of at
    least four vertices."""
    rng = random.Random(seed)
    rows, out = list(g._rows), []
    while len(out) < flips:
        u = rng.randrange(len(rows))
        v = rng.choice(_bits(rows[u]))
        w, x = _bits(rows[u] & rows[v])
        if rows[w] >> x & 1:
            continue
        new = rows[:]
        new[u] ^= 1 << v
        new[v] ^= 1 << u
        new[w] |= 1 << x
        new[x] |= 1 << w
        if rims_are_long_cycles(new):
            rows = new
            out.append(tuple(rows))
    return out


def disjoint_union(a, b):
    return a + tuple(r << len(a) for r in b)


def euler_corpus():
    """Rows of flag 2-spheres and of flag tori, Klein bottles and projective
    planes, all made by edge flips from grown surfaces, and disjoint unions
    of two spheres and of a sphere and a torus (chi = 2, but no sphere)."""
    from digitopo.catalog import get

    rng = random.Random(26)

    def flipped(g, order, flips):
        return flipped_surfaces(grown(g, order, rng.getrandbits(32)), flips, rng.getrandbits(32))

    spheres = [rows for order in (8, 10, 12, 14, 16, 20, 24) for rows in flipped(minimal_sphere(2), order, 150)]
    others = {}
    for name in ("torus16", "klein16", "rp11"):
        g = get(name).graph
        others[name] = [rows for extra in (0, 3, 8) for rows in flipped(g, g.order + extra, 120)]
    unions = [disjoint_union(rng.choice(spheres), rng.choice(spheres)) for _ in range(40)]
    unions += [disjoint_union(rng.choice(spheres), rng.choice(others["torus16"])) for _ in range(40)]
    unions += [disjoint_union(rng.choice(others["torus16"]), rng.choice(spheres)) for _ in range(40)]
    return spheres, [rows for group in others.values() for rows in group], unions


class TestEulerFormula:
    def test_formula_matches_a_decision_of_every_deletion(self):
        rng = random.Random(7)
        spheres, others, unions = euler_corpus()
        kinds = [0, 0]
        for rows in spheres + others + unions:
            assert rims_are_long_cycles(rows)
            want = oracle_failing_deletion(rows, range(len(rows)))
            assert recognizers._failing_deletion(rows, 2) == want, rows
            kinds[want is None] += 1
            labels = tuple(f"v{i}" for i in rng.sample(range(len(rows)), len(rows)))
            by_label = sorted(range(len(rows)), key=labels.__getitem__)
            witness = oracle_failing_deletion(rows, by_label)
            got = is_n_sphere(Graph(labels, rows), 2)
            assert got.failing_witness == (None if witness is None else labels[witness]), rows
        # every flipped sphere passes, every other surface and union fails
        assert kinds == [len(others) + len(unions), len(spheres)]
        assert len(spheres) >= 1000 and len(others) >= 1000

    @pytest.mark.parametrize(
        "dim, base, order, passes", [(2, None, 120, False), (2, "torus16", 100, False), (3, None, 40, True)]
    )
    def test_no_pass_runs_at_dimension_2(self, monkeypatch, dim, base, order, passes):
        """``classify`` of a grown 2-sphere or a grown torus decides no
        ``G - v`` and no rim by a pass; a grown 3-sphere still does, since
        the formula holds at d = 2 alone."""
        from digitopo.catalog import get

        g = grown(minimal_sphere(dim) if base is None else get(base).graph, order, 26)
        decided = []

        def counted(*args):
            decided.append(args)
            return kernels.decide(*args)

        monkeypatch.setattr(recognizers, "decide", counted)
        cold()
        assert classify(g).kind == ("Manifold" if base else "Sphere")
        assert bool(decided) is passes, len(decided)


class TestLargeInputs:
    """Wall-clock guards, with wide margins, on inputs whose deletion clause
    used to build dense rows for every G - v and every rim inside it."""

    def test_grown_2_sphere_of_120_vertices(self):
        g = grown(minimal_sphere(2), 120, 12)
        start = time.perf_counter()
        assert classify(g) == ClassificationVerdict("Sphere", 2)
        assert time.perf_counter() - start < 8

    def test_grown_3_sphere_of_60_vertices(self):
        g = grown(minimal_sphere(3), 60, 12)
        start = time.perf_counter()
        assert classify(g) == ClassificationVerdict("Sphere", 3)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("name", ["torus16", "klein16", "rp11"])
    def test_grown_catalog_surfaces_of_60_vertices(self, name):
        from digitopo.catalog import get

        g = grown(get(name).graph, 60, 13)
        start = time.perf_counter()
        assert classify(g) == ClassificationVerdict("Manifold", 2)
        assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# one memoized rim walk: each rim's rows are built once, and the top-level
# deletion clause runs once per recognizer call


def cold():
    recognizers.clear_caches()
    kernels.clear_caches()


def recursion_depth():
    """The interpreter's recursion depth at the caller: one below the lowest
    limit `sys.setrecursionlimit` accepts there."""
    old = sys.getrecursionlimit()
    lo, hi = 1, old
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            sys.setrecursionlimit(mid)
            hi = mid
        except RecursionError:
            lo = mid + 1
    sys.setrecursionlimit(old)
    return lo - 1


class TestOneRimWalk:
    def test_classify_builds_no_rim_twice(self, monkeypatch):
        calls = []

        def counted(rows, mask):
            calls.append(mask)
            return subgraph_rows(rows, mask)

        monkeypatch.setattr(recognizers, "subgraph_rows", counted)
        for g in spheres_for_clause_facts():
            built = []
            for recognize in (surface_dimension, classify):
                cold()
                calls.clear()
                recognize(g)
                built.append(len(calls))
            assert built[1] <= built[0], (g.order, built)

    @pytest.mark.parametrize("dim, order", [(2, 120), (3, 40)])
    def test_sphere_rims_are_read_on_masks(self, monkeypatch, dim, order):
        """Every rim of a grown 2- or 3-sphere is a 1- or 2-sphere by the
        mask facts, and every rim of those is one too, so the walk reindexes
        nothing."""
        g = grown(minimal_sphere(dim), order, 12)
        calls = []

        def counted(rows, mask):
            calls.append(mask)
            return subgraph_rows(rows, mask)

        monkeypatch.setattr(recognizers, "subgraph_rows", counted)
        cold()
        assert classify(g) == ClassificationVerdict("Sphere", dim)
        assert calls == []

    @pytest.mark.parametrize("name", ["torus16", "klein16", "rp11"])
    def test_top_level_deletion_clause_runs_once(self, monkeypatch, name):
        from digitopo.catalog import get

        g = shuffled_copy(random.Random(name), get(name).graph)
        full_rows = []
        failing_deletion = recognizers._failing_deletion

        def counted(rows, d):
            full_rows.append(rows == g._rows)
            return failing_deletion(rows, d)

        monkeypatch.setattr(recognizers, "_failing_deletion", counted)
        # every G - v of a closed surface other than the sphere fails, so the
        # sphere witness is the first label, whatever the vertex order
        for recognize, verdict in (
            (classify, ClassificationVerdict("Manifold", 2)),
            (lambda g: is_n_sphere(g, 2), ClassificationVerdict("None", None, min(g.vertices))),
        ):
            cold()
            full_rows.clear()
            assert recognize(g) == verdict
            assert full_rows.count(True) == 1, verdict

    def test_recursion_gets_no_deeper(self):
        """On the minimal 20-sphere, with cold caches, each call needed these
        many frames over the depth at the call before the recognizers shared
        one walk (measured on CPython 3.11); two more are allowed."""
        g = minimal_sphere(20)
        old = sys.getrecursionlimit()
        for call, need in (
            (classify, 63),
            (lambda g: is_n_sphere(g, 20), 63),
            (surface_dimension, 23),
        ):
            cold()
            sys.setrecursionlimit(recursion_depth() + need + 2)
            try:
                call(g)
            finally:
                sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# the walk reads rims that are 1- and 2-spheres on the caller's rows; each
# mask fact must agree with the walk on the rim's dense rows


def dense_sphere(rows, mask, d):
    return recognizers._is_sphere(subgraph_rows(rows, mask), d)


def toggled(rows, a, b):
    """``rows`` with the adjacency of ``a`` and ``b`` flipped."""
    out = list(rows)
    out[a] ^= 1 << b
    out[b] ^= 1 << a
    return tuple(out)


def planted_cycle(rnd, rows, k):
    """``rows`` with the subgraph on ``k`` random vertices replaced by a
    cycle through them in random order, and the mask of those vertices."""
    ring = rnd.sample(range(len(rows)), k)
    mask = sum(1 << v for v in ring)
    out = [r & ~mask if mask >> v & 1 else r for v, r in enumerate(rows)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        out[a] |= 1 << b
        out[b] |= 1 << a
    return tuple(out), mask


class TestRimMaskFacts:
    def test_cycle_fact_on_every_small_graph(self):
        cold()
        spheres = 0
        for n in range(6):
            for rows in all_rows(n):
                for mask in range(1 << n):
                    want = dense_sphere(rows, mask, 1)
                    assert recognizers._cycle(rows, mask) == want, (rows, mask)
                    spheres += want
        assert spheres > 100

    @settings(max_examples=200, deadline=None)
    @given(st.integers(6, 12), st.floats(0.1, 0.9), st.randoms(use_true_random=False), st.integers(0, 12))
    def test_cycle_fact_on_random_graphs(self, n, p, rnd, k):
        """Random masks, every rim, and a planted induced cycle of ``k``
        vertices with one vertex or one adjacency changed or not."""
        rows = random_graph(rnd, n, p)._rows
        cases = [(rows, rnd.getrandbits(n))] + [(rows, r) for r in rows]
        if 3 <= k <= n:
            planted, ring = planted_cycle(rnd, rows, k)
            a, b = rnd.sample(range(n), 2)
            cases += [(planted, ring), (planted, ring ^ 1 << rnd.randrange(n)), (toggled(planted, a, b), ring)]
        for case_rows, mask in cases:
            assert recognizers._cycle(case_rows, mask) == dense_sphere(case_rows, mask, 1), (case_rows, mask)

    def test_sphere_2_fact_on_rims(self):
        """Every rim of grown 3-spheres, each with one adjacency inside it
        toggled, every rim of the suspensions of surfaces other than the
        sphere (an apex rim is the surface, each other rim a suspended
        cycle), random masks, and a 2-sphere beside a torus (chi = 2, but
        disconnected)."""
        from digitopo.catalog import get

        rng = random.Random(27)
        sphere, torus = grown(minimal_sphere(2), 12, 27)._rows, get("torus16").graph._rows
        for rows in (disjoint_union(sphere, torus), disjoint_union(torus, sphere)):
            full = (1 << len(rows)) - 1
            assert not recognizers._sphere_2(rows, full) and not dense_sphere(rows, full, 2)
        graphs = [grown(minimal_sphere(3), order, rng.getrandbits(32)) for order in (8, 12, 20, 30, 40)]
        graphs += [join(get(name).graph, minimal_sphere(0)) for name in ("torus16", "klein16", "rp11")]
        kinds = [0, 0]
        for g in graphs:
            rows = g._rows
            cases = [(rows, r) for r in rows]
            for r in rows:
                a, b = rng.sample(_bits(r), 2)
                cases.append((toggled(rows, a, b), r))
            cases += [(rows, rng.getrandbits(g.order)) for _ in range(g.order)]
            for case_rows, mask in cases:
                want = dense_sphere(case_rows, mask, 2)
                assert recognizers._sphere_2(case_rows, mask) == want, (case_rows, mask)
                kinds[want] += 1
        assert min(kinds) > 100, kinds
        for name in ("torus16", "klein16", "rp11"):
            rows = join(get(name).graph, minimal_sphere(0))._rows
            assert [recognizers._sphere_2(rows, r) for r in rows[-2:]] == [False, False]
