"""Simple points/edges, transformations, traces, reduction, equivalence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    octahedron,
    path_graph,
    random_accepted_steps,
    random_contractible_graph,
    random_graph,
    shuffled_copy,
    small_graphs_out_of_label_order,
    wheel,
)
from digitopo.graph import GraphError, build_graph, canonical_key, edge_rim, induced_subgraph, rim
from digitopo.homotopy import (
    AttachEdge,
    AttachPoint,
    DeleteEdge,
    DeletePoint,
    HomotopyTrace,
    TransformationError,
    apply_trace,
    apply_transformation,
    homotopy_equivalent,
    invert_trace,
    is_contractible,
    is_simple_edge,
    is_simple_point,
    reduce,
)


class TestSimplePoints:
    def test_path_endpoint_simple(self):
        g = path_graph(3)
        assert is_simple_point(g, "p0")

    def test_c4_vertices_not_simple(self):
        g = cycle_graph(4)
        assert not any(is_simple_point(g, v) for v in g.vertices)

    def test_k4_vertices_simple(self):
        g = complete_graph(4)
        assert all(is_simple_point(g, v) for v in g.vertices)

    def test_triangle_edges_simple(self):
        g = complete_graph(3)
        assert is_simple_edge(g, "k0", "k1")

    def test_c4_edges_not_simple(self):
        g = cycle_graph(4)
        for u, v in g.edges():
            assert not is_simple_edge(g, u, v)

    def test_octahedron_edges_not_simple(self):
        g = octahedron()
        for u, v in g.edges():
            assert not is_simple_edge(g, u, v)

    def test_rim_tests_match_the_rim_graphs(self):
        for g in small_graphs_out_of_label_order(5):
            for v in g.vertices:
                assert is_simple_point(g, v) == is_contractible(rim(g, v))
            for u, v in g.edges():
                assert is_simple_edge(g, u, v) == is_contractible(edge_rim(g, u, v))

    def test_missing_vertex_and_non_edge_raise(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match="vertex 'x' not in graph"):
            is_simple_point(g, "x")
        with pytest.raises(GraphError, match="vertex 'x' not in graph"):
            is_simple_edge(g, "p0", "x")
        with pytest.raises(GraphError, match=r"\('p0', 'p2'\) is not an edge"):
            is_simple_edge(g, "p0", "p2")


class TestContractible:
    def test_one_point(self):
        assert is_contractible(build_graph(["a"]))

    def test_c4_false(self):
        assert not is_contractible(cycle_graph(4))

    def test_cone_over_c4(self):
        assert is_contractible(wheel(4))

    def test_trace_witness_replays(self):
        g = wheel(6)
        ok, trace = is_contractible(g, return_trace=True)
        assert ok and trace is not None and len(trace) == g.order - 1
        assert apply_trace(g, trace).order == 1

    def test_trace_none_when_not_contractible(self):
        ok, trace = is_contractible(cycle_graph(5), return_trace=True)
        assert not ok and trace is None

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("wheel4", ["c0", "c1", "c2", "c3"]),
            ("wheel7", ["c0", "c1", "c2", "c3", "c4", "c5", "c6"]),
            ("disk_oct5", ["s1a", "s2a", "s0b", "s1b"]),
            ("disk_path3", ["p0", "p1"]),
        ],
    )
    def test_trace_is_the_first_search_branch(self, name, expected):
        # the greedy (minimum degree, then index) order, pinned
        from digitopo import catalog

        g = wheel(int(name[5:])) if name.startswith("wheel") else catalog.get(name).graph
        ok, trace = is_contractible(g, return_trace=True)
        assert ok and [step.v for step in trace] == expected


class TestApplyTransformation:
    def test_attach_pendant(self):
        g = cycle_graph(4)
        out = apply_transformation(g, AttachPoint("x", frozenset({"c0"})))
        assert out.order == 5 and out.degree("x") == 1

    def test_delete_wheel_hub_rejected(self):
        g = wheel(4)
        with pytest.raises(TransformationError, match="rim is not contractible"):
            apply_transformation(g, DeletePoint("hub"))

    def test_delete_wheel_rim_vertex_accepted(self):
        g = wheel(4)
        out = apply_transformation(g, DeletePoint("c0"))
        assert out.order == 4

    def test_attach_edge_closing_path(self):
        g = path_graph(3, prefix="v")
        out = apply_transformation(g, AttachEdge("v0", "v2"))
        assert canonical_key(out) == canonical_key(complete_graph(3))

    def test_attach_edge_rejected_without_contractible_rim(self):
        g = cycle_graph(4)
        with pytest.raises(TransformationError, match="common-neighbor rim"):
            apply_transformation(g, AttachEdge("c0", "c2"))

    def test_attach_point_empty_rim_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(TransformationError):
            apply_transformation(g, AttachPoint("x", frozenset()))

    def test_delete_edge_rejected_on_c4(self):
        g = cycle_graph(4)
        with pytest.raises(TransformationError, match="edge rim is not contractible"):
            apply_transformation(g, DeleteEdge("c0", "c1"))


class TestStepResultsExhaustive:
    """Each step kind on every graph of at most 5 vertices yields exactly the
    graph build_graph makes from the expected lists, vertex order included:
    witness traces name vertices by index, so every graph, however made,
    must hold its vertices in label order. An attached point's label
    ("v1a") falls among the others."""

    @staticmethod
    def same(out, vertices, edges):
        expected = build_graph(vertices, edges)
        assert out.vertices == expected.vertices
        assert set(out.edges()) == set(expected.edges())

    def test_every_step_kind(self):
        seen = set()
        for g in small_graphs_out_of_label_order(5):
            vs = list(g.vertices)
            es = list(g.edges())
            for v in vs:
                step = DeletePoint(v)
                if not is_simple_point(g, v):
                    with pytest.raises(TransformationError):
                        apply_transformation(g, step)
                    continue
                self.same(
                    apply_transformation(g, step),
                    [w for w in vs if w != v],
                    [e for e in es if v not in e],
                )
                seen.add("delete-point")
            for size in range(1, len(vs) + 1):
                for rim_set in itertools.combinations(vs, size):
                    step = AttachPoint("v1a", frozenset(rim_set))
                    if not is_contractible(induced_subgraph(g, rim_set)):
                        with pytest.raises(TransformationError):
                            apply_transformation(g, step)
                        continue
                    self.same(
                        apply_transformation(g, step),
                        vs + ["v1a"],
                        es + [("v1a", w) for w in rim_set],
                    )
                    seen.add("attach-point")
            for u, v in itertools.combinations(vs, 2):
                if g.has_edge(u, v):
                    step, ok = DeleteEdge(u, v), is_simple_edge(g, u, v)
                    expected = [e for e in es if set(e) != {u, v}]
                else:
                    common = set(g.neighbors(u)) & set(g.neighbors(v))
                    step = AttachEdge(u, v)
                    ok = is_contractible(induced_subgraph(g, common))
                    expected = es + [(u, v)]
                if not ok:
                    with pytest.raises(TransformationError):
                        apply_transformation(g, step)
                    continue
                self.same(apply_transformation(g, step), vs, expected)
                seen.add(type(step).__name__)
        assert seen == {"delete-point", "attach-point", "DeleteEdge", "AttachEdge"}


class TestTraces:
    def test_round_trip_json(self):
        trace = HomotopyTrace(
            (
                AttachPoint("x", frozenset({"a", "b"})),
                DeleteEdge("a", "b"),
                DeletePoint("x"),
                AttachEdge("a", "b"),
            )
        )
        assert HomotopyTrace.from_obj(trace.to_obj()) == trace

    def test_attach_then_delete_is_identity(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_contractible_graph(rng, rng.randint(2, 8))
            size = rng.randint(1, min(3, g.order))
            s = frozenset(rng.sample(list(g.vertices), size))
            if not is_contractible(induced_subgraph(g, s)):
                continue
            trace = HomotopyTrace((AttachPoint("zz", s), DeletePoint("zz")))
            assert canonical_key(apply_trace(g, trace)) == canonical_key(g)

    def test_invert_trace_returns_to_source(self):
        rng = random.Random(33)
        g = random_contractible_graph(rng, 7)
        residue, trace = reduce(g)
        back = invert_trace(g, trace)
        restored = apply_trace(residue, back)
        assert canonical_key(restored) == canonical_key(g)
        assert set(restored.vertices) == set(g.vertices)


class TestReduce:
    def test_tree_reduces_to_point(self):
        g = build_graph(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")]
        )
        residue, trace = reduce(g)
        assert residue.order == 1 and len(trace) == 4

    def test_c4_irreducible(self):
        residue, trace = reduce(cycle_graph(4))
        assert residue.order == 4 and len(trace) == 0

    def test_octahedron_irreducible(self):
        residue, trace = reduce(octahedron())
        assert residue.order == 6

    def test_deterministic_greedy_order(self):
        g = build_graph(
            ["b", "a", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
        )
        _, trace = reduce(g)
        # both endpoints have degree 1; label order picks 'a' first
        assert trace.steps[0] == DeletePoint("a")

    def test_each_step_deletes_the_min_degree_label_simple_point(self):
        for g in small_graphs_out_of_label_order(5):
            residue, trace = reduce(g)
            cur = g
            for step in trace:
                simple = [v for v in cur.vertices if is_simple_point(cur, v)]
                assert step == DeletePoint(min(simple, key=lambda w: (cur.degree(w), w)))
                cur = induced_subgraph(cur, [w for w in cur.vertices if w != step.v])
            assert not any(is_simple_point(cur, v) for v in cur.vertices)
            assert residue.vertices == cur.vertices
            assert set(residue.edges()) == set(cur.edges())

    def test_trace_replays_to_residue(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            residue, trace = reduce(g)
            replayed = apply_trace(g, trace)
            assert canonical_key(replayed) == canonical_key(residue)
            assert not any(is_simple_point(residue, v) for v in residue.vertices)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 14), st.floats(0.1, 0.9), st.randoms(use_true_random=False))
    def test_residue_has_no_simple_point(self, n, p, rnd):
        """The equivalence search expands residues only and tries no point
        deletion on them, which needs this."""
        residue, _ = reduce(shuffled_copy(rnd, random_graph(rnd, n, p)))
        assert not any(is_simple_point(residue, v) for v in residue.vertices), residue.edges()


class TestInvariancePreservation:
    def test_accepted_steps_preserve_invariants(self):
        from digitopo.invariants import euler_characteristic, homology, same_profile

        rng = random.Random(77)
        total = 0
        for base in range(8):
            g = random_graph(rng, rng.randint(5, 10), 0.4, prefix=f"g{base}_")
            for step, before, after in random_accepted_steps(rng, g, 6):
                assert euler_characteristic(before) == euler_characteristic(after), step
                assert same_profile(homology(before), homology(after)), step
                total += 1
        assert total >= 30


class TestHomotopyEquivalent:
    def test_identity_case(self):
        g = cycle_graph(4)
        h = build_graph(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
        verdict = homotopy_equivalent(g, h)
        assert verdict.status == "Equivalent"

    def test_c4_vs_point_distinguished(self):
        verdict = homotopy_equivalent(cycle_graph(4), build_graph(["a"]))
        assert verdict.status == "Distinguished"
        assert verdict.invariant == "euler"
        assert verdict.values == (0, 1)

    def test_cycles_of_different_length_connect(self):
        verdict = homotopy_equivalent(cycle_graph(5), cycle_graph(9))
        assert verdict.status == "Equivalent"
        ta, tb = verdict.traces
        ra = apply_trace(cycle_graph(5), ta)
        rb = apply_trace(cycle_graph(9), tb)
        assert canonical_key(ra) == canonical_key(rb)

    def test_sphere_vs_torus_distinguished(self):
        from digitopo.catalog import get

        verdict = homotopy_equivalent(octahedron(), get("torus16").graph)
        assert verdict.status == "Distinguished"

    def test_torus_vs_klein_distinguished_by_first_betti(self):
        from digitopo.catalog import get

        verdict = homotopy_equivalent(get("torus16").graph, get("klein16").graph)
        assert verdict.status == "Distinguished"
        assert verdict.invariant == "betti_q[1]"
        assert verdict.values == (2, 1)

    def test_moves_reduce_from_the_rims_they_changed(self):
        """The search reduces each move of a residue from the vertices whose
        rims the move changed; the residue and trace are those of `reduce`."""
        from digitopo._kernels._pure import subgraph_rows
        from digitopo.catalog import get, names
        from digitopo.homotopy import _reduce, _search_moves

        def rims(g):
            return [(r, subgraph_rows(g._rows, r)) for r in g._rows]

        moves = 0
        for name in names():
            residue, _ = reduce(get(name).graph)
            for _, nxt, changed in _search_moves(residue):
                differ = [a != b for a, b in zip(rims(residue), rims(nxt))]
                assert changed == sum(1 << w for w, d in enumerate(differ) if d), name
                want_graph, want_trace = reduce(nxt)
                got_graph, got_trace = _reduce(nxt, changed)
                assert got_trace == want_trace, name
                assert (got_graph._labels, got_graph._rows) == (want_graph._labels, want_graph._rows)
                moves += 1
        assert moves > 50

    def test_reduce_traces_bit_identical(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_graph(rng, 12, 0.35)
            _, t1 = reduce(g)
            _, t2 = reduce(g)
            assert t1 == t2

    def test_witness_never_fabricated(self):
        # Unknown is acceptable; Equivalent must always replay
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng, 7, 0.4)
            h = random_graph(rng, 7, 0.4, prefix="u")
            verdict = homotopy_equivalent(g, h, budget=60)
            if verdict.status == "Equivalent":
                ta, tb = verdict.traces
                assert canonical_key(apply_trace(g, ta)) == canonical_key(apply_trace(h, tb))
