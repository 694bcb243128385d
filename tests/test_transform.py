"""Edge-to-point replacement."""

import random

import pytest

from conftest import cycle_graph, octahedron, random_graph, small_graphs_out_of_label_order
from digitopo.catalog import get
from digitopo.classify import is_n_manifold, is_n_sphere
from digitopo.graph import GraphError, build_graph, canonical_key, edge_rim
from digitopo.homotopy import apply_trace
from digitopo.invariants import euler_characteristic, homology, same_profile
from digitopo.transform import fresh_label, r_transform


class TestRTransform:
    def test_c4_becomes_c5(self):
        g = cycle_graph(4)
        out, step = r_transform(g, "c0", "c1", "x1")
        assert canonical_key(out) == canonical_key(cycle_graph(5))
        assert step.edge == ("c0", "c1") and step.new_point == "x1"

    def test_octahedron_grows_a_2_sphere(self):
        g = octahedron()
        u, v = g.edges()[0]
        out, _ = r_transform(g, u, v, "x1")
        assert out.order == 7
        assert is_n_sphere(out, 2).ok

    def test_torus16_stays_a_torus(self):
        g = get("torus16").graph
        u, v = g.edges()[0]
        out, _ = r_transform(g, u, v, "x1")
        assert out.order == 17
        assert is_n_manifold(out, 2).ok
        assert euler_characteristic(out) == 0
        assert homology(out).betti_q == (1, 2, 1)

    def test_counts_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10), 0.5)
            if not g.size:
                continue
            u, v = rng.choice(g.edges())
            shared = edge_rim(g, u, v).order
            out, step = r_transform(g, u, v, "zz1")
            assert out.order == g.order + 1
            assert out.size == g.size + shared + 1
            assert set(out.neighbors("zz1")) == {u, v} | set(edge_rim(g, u, v).vertices)
            assert not out.has_edge(u, v)

    def test_result_matches_build_graph_exhaustively(self):
        # the new point takes its label's place in label order: before,
        # among or after the others, which then move up one index
        for g in small_graphs_out_of_label_order(5):
            vs = list(g.vertices)
            for u, v in g.edges():
                for x in ("a", "v1a", "x"):
                    out, step = r_transform(g, u, v, x)
                    rim_set = {u, v} | (set(g.neighbors(u)) & set(g.neighbors(v)))
                    expected = build_graph(
                        vs + [x],
                        [e for e in g.edges() if set(e) != {u, v}] + [(x, w) for w in rim_set],
                    )
                    assert out.vertices == expected.vertices
                    assert set(out.edges()) == set(expected.edges())
                    assert step.rim_labels == tuple(sorted(rim_set))

    def test_expansion_replays(self):
        g = octahedron()
        u, v = g.edges()[0]
        out, step = r_transform(g, u, v, "x1")
        replayed = apply_trace(g, step.to_trace())
        assert replayed == out

    def test_invariants_preserved(self):
        for name in ("torus16", "klein16", "rp11"):
            g = get(name).graph
            u, v = g.edges()[0]
            out, _ = r_transform(g, u, v, "x1")
            assert euler_characteristic(out) == euler_characteristic(g)
            assert same_profile(homology(out), homology(g))

    def test_rejections(self):
        g = cycle_graph(4)
        with pytest.raises(GraphError, match="not an edge"):
            r_transform(g, "c0", "c2", "x1")
        with pytest.raises(GraphError, match="already a vertex"):
            r_transform(g, "c0", "c1", "c3")
        with pytest.raises(GraphError, match="not in graph"):
            r_transform(g, "c0", "zz", "x1")

    def test_fresh_label(self):
        g = cycle_graph(3)
        assert fresh_label(g) == "x1"
        out, _ = r_transform(g, "c0", "c1", fresh_label(g))
        assert fresh_label(out) == "x2"

    def test_chained_steps_keep_the_manifold(self):
        rng = random.Random(8)
        g = get("torus16").graph
        for _ in range(5):
            u, v = rng.choice(g.edges())
            g, _ = r_transform(g, u, v, fresh_label(g))
        assert g.order == 21
        assert is_n_manifold(g, 2).ok
        assert euler_characteristic(g) == 0
        assert homology(g).betti_q == (1, 2, 1)
