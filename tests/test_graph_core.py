"""Graph primitives: construction, rim/ball/edge-rim/join, canonical keys."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    brute_isomorphic,
    complete_graph,
    cycle_graph,
    octahedron,
    path_graph,
    point_pair,
    random_graph,
    shuffled_copy,
)
from digitopo.graph import (
    GraphError,
    ball,
    build_graph,
    canonical_key,
    components,
    edge_rim,
    induced_subgraph,
    is_connected,
    join,
    join_with_map,
    relabeled,
    rim,
)
from digitopo.homotopy import is_contractible, reduce


class TestBuildGraph:
    def test_four_cycle(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert g.order == 4 and g.size == 4
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert not g.has_edge("a", "c")

    def test_one_point(self):
        g = build_graph(["a"], [])
        assert g.order == 1 and g.size == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(["a", "b"], [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex 'z'"):
            build_graph(["a", "b"], [("a", "z")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(["a", "a"], [])

    def test_duplicate_edges_collapse(self):
        g = build_graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
        assert g.size == 1


class TestOneVertexOrder:
    """A graph holds its vertices in label order, whatever order they were
    listed in, so its rows, its hash and its witnesses are the same."""

    def test_relabeling_to_a_non_string_rejected(self):
        g = build_graph(["a", "b"], [("a", "b")])
        with pytest.raises(GraphError, match="strings"):
            relabeled(g, {"a": 5})

    def test_reversed_path(self):
        edges = [("a", "b"), ("b", "c")]
        g, h = build_graph(["c", "b", "a"], edges), build_graph(["a", "b", "c"], edges)
        assert g.vertices == h.vertices == ("a", "b", "c")
        assert g._rows == h._rows and hash(g) == hash(h)
        assert is_contractible(g, return_trace=True) == is_contractible(h, return_trace=True)
        assert is_contractible(g, return_trace=True) == (True, reduce(g)[1])

    def test_shuffled_vertex_lists_build_one_graph(self):
        rng = random.Random(28)
        to_a_point = 0
        for k in range(300):
            n = 1 + k % 11
            labels = [f"v{i}" for i in rng.sample(range(40), n)]
            p = rng.choice((0.3, 0.5, 0.7))
            edges = [e for e in itertools.combinations(labels, 2) if rng.random() < p]
            builds = []
            for _ in range(3):
                rng.shuffle(labels)
                rng.shuffle(edges)
                builds.append(build_graph(labels, [e[::-1] if rng.random() < 0.5 else e for e in edges]))
            g = builds[0]
            assert g.vertices == tuple(sorted(labels))
            traced = is_contractible(g, return_trace=True)
            for h in builds[1:]:
                assert h._rows == g._rows and hash(h) == hash(g) and h == g
                assert is_contractible(h, return_trace=True) == traced
            residue, trace = reduce(g)
            if residue.order == 1:
                assert traced == (True, trace)
                to_a_point += 1
        assert to_a_point > 50


class TestRimBall:
    def test_rim_of_octahedron_vertex_is_c4(self):
        g = octahedron()
        for v in g.vertices:
            r = rim(g, v)
            # independent derivation: induced edges among the neighbor set
            nbrs = set(g.neighbors(v))
            expect_edges = {e for e in g.edges() if set(e) <= nbrs}
            assert set(r.vertices) == nbrs
            assert set(r.edges()) == expect_edges
            assert canonical_key(r) == canonical_key(cycle_graph(4))

    def test_rim_in_c4_is_zero_sphere(self):
        g = cycle_graph(4)
        r = rim(g, "c0")
        assert r.order == 2 and r.size == 0

    def test_rim_of_isolated_point(self):
        g = build_graph(["a"], [])
        assert rim(g, "a").order == 0

    def test_rim_missing_vertex(self):
        with pytest.raises(GraphError):
            rim(cycle_graph(4), "zz")

    def test_ball_in_c4_is_path(self):
        g = cycle_graph(4)
        b = ball(g, "c0")
        assert canonical_key(b) == canonical_key(path_graph(3))

    def test_ball_in_complete_graph(self):
        g = complete_graph(4)
        assert ball(g, "k0") == g

    def test_ball_of_isolated_vertex(self):
        g = build_graph(["a", "b"], [])
        assert ball(g, "a").order == 1

    def test_ball_is_rim_plus_star(self):
        g = octahedron()
        v = g.vertices[0]
        b, r = ball(g, v), rim(g, v)
        assert set(b.vertices) == set(r.vertices) | {v}
        assert v not in r.vertices


class TestEdgeRim:
    def test_c4_edge_rim_empty(self):
        g = cycle_graph(4)
        assert edge_rim(g, "c0", "c1").order == 0

    def test_octahedron_edge_rim_is_s0(self):
        g = octahedron()
        u, v = g.edges()[0]
        r = edge_rim(g, u, v)
        assert r.order == 2 and r.size == 0

    def test_triangle_edge_rim_one_point(self):
        g = complete_graph(3)
        assert edge_rim(g, "k0", "k1").order == 1

    def test_non_edge_rejected(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_rim(cycle_graph(4), "c0", "c2")

    def test_edge_rim_is_rim_intersection(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, 8, 0.5)
            for u, v in g.edges():
                expect = set(rim(g, u).vertices) & set(rim(g, v).vertices)
                assert set(edge_rim(g, u, v).vertices) == expect


class TestJoin:
    def test_s0_join_s0_is_c4(self):
        g = join(point_pair(), point_pair())
        assert canonical_key(g) == canonical_key(cycle_graph(4))

    def test_cone_over_graph(self):
        g = cycle_graph(5)
        cone = join(build_graph(["apex"]), g)
        assert cone.order == 6
        assert set(cone.neighbors("apex")) == set(g.vertices)

    def test_triple_join_is_octahedron(self):
        g = octahedron()
        assert g.order == 6 and g.size == 12

    def test_collision_relabeling_reported(self):
        g = build_graph(["a", "b"], [("a", "b")])
        joined, renames = join_with_map(g, g)
        assert joined.order == 4
        assert set(renames) == {"a", "b"}
        assert all(new in joined.vertices for new in renames.values())

    def test_join_associative_up_to_iso(self):
        a, b, c = point_pair(), path_graph(2), cycle_graph(3)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert canonical_key(left) == canonical_key(right)


class TestInducedSubgraph:
    def test_path_from_c4(self):
        g = cycle_graph(4)
        s = induced_subgraph(g, ["c0", "c1", "c2"])
        assert canonical_key(s) == canonical_key(path_graph(3))

    def test_empty_selection(self):
        assert induced_subgraph(cycle_graph(4), []).order == 0

    def test_full_selection_identity(self):
        g = cycle_graph(4)
        assert induced_subgraph(g, g.vertices) == g

    def test_stray_vertex_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(cycle_graph(4), ["c0", "zz"])


class TestCanonicalKey:
    def test_relabel_invariance(self):
        g1 = build_graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")])
        g2 = build_graph(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
        assert canonical_key(g1) == canonical_key(g2)

    def test_c4_vs_p4_differ(self):
        assert canonical_key(cycle_graph(4)) != canonical_key(path_graph(4))

    def test_empty_sentinel(self):
        e1 = induced_subgraph(cycle_graph(3), [])
        e2 = build_graph([], [])
        assert canonical_key(e1) == canonical_key(e2)

    def test_keys_match_brute_isomorphism_on_all_4_vertex_graphs(self):
        graphs = list(all_labeled_graphs(4))
        for i, g in enumerate(graphs[::7]):
            for h in graphs[:: 11]:
                same = canonical_key(g) == canonical_key(h)
                assert same == brute_isomorphic(g, h)

    def test_keys_vs_brute_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            h = random_graph(rng, g.order, rng.random(), prefix="u")
            assert (canonical_key(g) == canonical_key(h)) == brute_isomorphic(g, h)

    def test_random_relabelings_up_to_12_vertices(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 12), rng.random())
            assert canonical_key(shuffled_copy(rng, g)) == canonical_key(g)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 9), st.randoms(use_true_random=False))
    def test_hypothesis_relabeling(self, n, rnd):
        g = random_graph(rnd, n, 0.5)
        assert canonical_key(shuffled_copy(rnd, g)) == canonical_key(g)


class TestConnectivity:
    def test_components(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert components(g) == (("a", "b"), ("c", "d"))
        assert not is_connected(g)
        assert is_connected(cycle_graph(5))
