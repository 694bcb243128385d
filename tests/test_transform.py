"""Edge-to-point replacement."""

import random

import pytest

from conftest import cycle_graph, octahedron, random_graph, small_graphs_out_of_label_order
from digitopo.catalog import get, names
from digitopo.classify import is_n_manifold, is_n_sphere
from digitopo.graph import Graph, GraphError, _without_vertex, build_graph, canonical_key, edge_rim
from digitopo.homotopy import (
    AttachEdge,
    AttachPoint,
    DeleteEdge,
    DeletePoint,
    TransformationError,
    apply_trace,
    apply_transformation,
)
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
                    assert out.edges() == expected.edges()
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


def _pair(rng: random.Random, g: Graph, adjacent: bool):
    """A random vertex pair of ``g``, adjacent or not, read off the rows (so
    the draw never asks ``g`` for its edges), or None when there is none."""
    pairs = [
        (g.vertices[i], g.vertices[j])
        for i in range(g.order)
        for j in range(i + 1, g.order)
        if bool(g._rows[i] >> j & 1) == adjacent
    ]
    return rng.choice(pairs) if pairs else None


def _random_edit(rng: random.Random, g: Graph, fresh: int) -> Graph | None:
    """One seeded row edit of ``g``: an edge-to-point replacement, one of the
    four homotopy steps through `apply_transformation`, or a bare vertex
    deletion; None when the drawn edit does not apply. New labels start
    with a letter drawn so that they land before, among or after the
    others in label order."""
    kind = rng.choice(["r", "del-point", "att-point", "del-edge", "att-edge", "without"])
    label = f"{rng.choice('0aksvz')}n{fresh}"
    try:
        if kind == "r":
            pair = _pair(rng, g, True)
            return r_transform(g, *pair, label)[0] if pair else None
        if kind == "del-point" and g.order > 1:
            return apply_transformation(g, DeletePoint(rng.choice(g.vertices)))
        if kind == "att-point" and g.order:
            rim = rng.sample(g.vertices, rng.randint(1, min(3, g.order)))
            return apply_transformation(g, AttachPoint(label, frozenset(rim)))
        if kind in ("del-edge", "att-edge"):
            pair = _pair(rng, g, kind == "del-edge")
            step = DeleteEdge if kind == "del-edge" else AttachEdge
            return apply_transformation(g, step(*pair)) if pair else None
        if kind == "without" and g.order > 1:
            return _without_vertex(g, rng.randrange(g.order))
    except TransformationError:
        pass
    return None


class TestEdgeTuple:
    """A graph computes its edge tuple once, and the row edits carry it from
    a parent that holds one: every carried tuple must equal the tuple
    computed from scratch on the same labels and rows."""

    @staticmethod
    def scratch(g: Graph):
        return Graph(g.vertices, g._rows).edges()

    def chain(self, start: Graph, seed: int, warm: bool, steps: int = 14) -> Graph:
        # a copy, so a cold chain starts from a graph that never built its edges
        g = Graph(start.vertices, start._rows)
        if warm:
            g.edges()
        rng = random.Random(seed)
        for fresh in range(steps):
            child = _random_edit(rng, g, fresh)
            if child is None:
                continue
            if warm:
                assert child.edges() == self.scratch(child), (seed, fresh)
            else:
                assert child._edges is None
            g = child
        assert g.edges() == self.scratch(g)
        return g

    def test_chains_on_the_catalog(self):
        for k, name in enumerate(names()):
            start = get(name).graph
            for seed in range(3 * k, 3 * k + 3):
                assert self.chain(start, seed, True) == self.chain(start, seed, False)

    def test_chains_on_random_graphs(self):
        rng = random.Random(29)
        for seed in range(60):
            start = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]))
            assert self.chain(start, seed, True) == self.chain(start, seed, False)

    def test_edges_are_computed_once(self):
        g = get("torus16").graph
        assert g.edges() is g.edges()
        out, _ = r_transform(g, *g.edges()[0], "x1")
        assert out.edges() is out.edges()
