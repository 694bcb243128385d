"""Kernel-level oracles: canonical forms and contractibility decisions.

Brute-force references live in conftest; they share nothing with the kernel
search (no canonical forms, no memoization). The exact search the kernel used
before its greedy and homology tiers is kept below as a second oracle for
graphs too large for brute force.
"""

import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_labeled_graphs,
    brute_contractible,
    chebyshev_block,
    complete_graph,
    cycle_graph,
    dunce_hat,
    eager_greedy,
    mod3_moore_space,
    octahedron,
    path_graph,
    pendant_dunce_hat,
    random_graph,
    wheel,
)
from digitopo import _kernels as kernels
from digitopo._kernels import _pure
from digitopo.classify import minimal_sphere
from digitopo.graph import (
    Graph,
    build_graph,
    canonical_key,
    components,
    induced_subgraph,
    relabeled,
    rim,
)
from digitopo.homotopy import DeletePoint, HomotopyTrace, apply_trace, is_contractible, reduce
from digitopo.invariants import clique_vector, euler_characteristic, homology
from test_invariants import collapse_homology


def masks(g):
    return g.order, g._rows


def on_all(g):
    """The rows of ``g`` and the mask of all its vertices."""
    return g._rows, (1 << g.order) - 1


def whole(g):
    """`_pure.decide` on every vertex of ``g``: the verdict and its tier."""
    return _pure.decide(g._rows, (1 << g.order) - 1)[:2]


def contraction_order(n, rows):
    """The witnessing deletion order down to one vertex, or None: `decide`'s
    order, or the greedy pass's for a cone, which `decide` answers without
    one (as `homotopy.is_contractible` does when asked for a trace)."""
    verdict, _, order = _pure.decide(rows, (1 << n) - 1)
    if not verdict:
        return None
    return order or _pure._greedy(rows, (1 << n) - 1)[1]


# ---------------------------------------------------------------------------
# the exact search alone: backtracking over every simple point in (degree,
# index) order, memoized on canonical forms at every node


_exact_memo: dict[bytes, bool] = {}


def exact_search(n, rows) -> bool:
    if n == 0:
        return False
    if n == 1:
        return True
    if not _pure.connected(rows, (1 << n) - 1):
        return False
    key = _pure.canon_bytes(rows, (1 << n) - 1)
    if key not in _exact_memo:
        _exact_memo[key] = exact_search_order(n, rows) is not None
    return _exact_memo[key]


def exact_search_order(n, rows):
    """First successful branch of the exact search, or None."""
    if n == 1:
        return []
    for v in sorted(range(n), key=lambda v: (rows[v].bit_count(), v)):
        rim = _pure.subgraph_rows(rows, rows[v])
        if not exact_search(len(rim), rim):
            continue
        drows = _pure.subgraph_rows(rows, ((1 << n) - 1) ^ (1 << v))
        if exact_search(n - 1, drows):
            rest = exact_search_order(n - 1, drows)
            return [v] + [u + (u >= v) for u in rest]
    return None


@st.composite
def graphs_7_to_10(draw):
    n = draw(st.integers(7, 10))
    density = draw(st.integers(1, 9))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return n, rows


class TestContractibleKernel:
    def test_one_point(self):
        assert kernels.contractible_on(*on_all(build_graph(["a"]))) is True

    def test_empty(self):
        assert kernels.contractible_on((), 0) is False

    def test_c4_not_contractible(self):
        assert kernels.contractible_on(*on_all(cycle_graph(4))) is False

    def test_octahedron_not_contractible(self):
        assert kernels.contractible_on(*on_all(octahedron())) is False

    def test_wheel_contractible(self):
        assert kernels.contractible_on(*on_all(wheel(4))) is True

    def test_trees_contract(self):
        assert kernels.contractible_on(*on_all(path_graph(6))) is True

    def test_complete_graphs_contract(self):
        for k in range(1, 6):
            assert kernels.contractible_on(*on_all(complete_graph(k))) is True

    def test_exhaustive_against_brute_force_up_to_5(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert kernels.contractible_on(*on_all(g)) == brute_contractible(g), g.edges()

    def test_exhaustive_against_brute_force_on_6(self):
        for g in all_labeled_graphs(6):
            assert kernels.contractible_on(*on_all(g)) == brute_contractible(g), g.edges()

    def test_random_6_and_7_vertex_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(6, 7), rng.random())
            assert kernels.contractible_on(*on_all(g)) == brute_contractible(g), g.edges()

    @settings(max_examples=150, deadline=None)
    @given(graphs_7_to_10())
    def test_agrees_with_exact_search(self, graph):
        n, rows = graph
        verdict = exact_search(n, rows)
        assert _pure.contractible_on(rows, (1 << n) - 1) == verdict
        assert contraction_order(n, rows) == exact_search_order(n, rows)
        # tier 3 alone, run on any input
        assert _pure._exact(rows, (1 << n) - 1, {}) == exact_search_order(n, rows)

    def test_nested_frames_name_the_callers_vertices(self, monkeypatch):
        """With a greedy pass that deletes nothing, every node of the exact
        search below the root is a frame of its stack, so a branch on a mask
        of three or more vertices runs through two frames or more. On a
        proper mask the branch must name the caller's vertices: the dense
        search's branch mapped back through the mask's vertices."""

        def stalled(rows, alive, rims=None):
            return alive, []

        kernels.clear_caches()
        monkeypatch.setattr(_pure, "_greedy", stalled)
        deep = 0
        try:
            for n in range(4, 6):
                for g in all_labeled_graphs(n):
                    for v in range(n):
                        mask = ((1 << n) - 1) ^ (1 << v)
                        verts = _pure._bits(mask)
                        dense = exact_search_order(n - 1, _pure.subgraph_rows(g._rows, mask))
                        want = None if dense is None else [verts[u] for u in dense]
                        assert _pure._exact(g._rows, mask, {}) == want, (g.edges(), mask)
                        deep += want is not None
        finally:
            kernels.clear_caches()
        assert deep > 1000


# ---------------------------------------------------------------------------
# the sphere clause's decision on parent rows, against the dense oracle


def dense_oracle(rows, alive):
    return _pure.contractible_on(rows, alive)


def within(rows, alive, rims):
    """The sphere clause's decision of the subgraph on ``alive``, with the
    rim table it shares between the clauses of one sphere test."""
    return _pure.decide(rows, alive, rims)[0]


@st.composite
def graphs_7_to_12_with_masks(draw):
    n = draw(st.integers(7, 12))
    density = draw(st.integers(1, 9))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    full = (1 << n) - 1
    more = draw(st.lists(st.integers(0, full), max_size=6))
    # the masks of the deletion clause first, then arbitrary ones
    return rows, [full ^ (1 << v) for v in range(n)] + more


class TestDecide:
    """`decide` is the one contractibility decision on a vertex mask."""

    def test_every_mask_of_every_graph_up_to_5(self):
        brute: dict[tuple[int, ...], bool] = {}

        def oracle(g, mask):
            sub = induced_subgraph(g, [v for i, v in enumerate(g.vertices) if mask >> i & 1])
            if sub._rows not in brute:
                brute[sub._rows] = brute_contractible(sub)
            return brute[sub._rows], sub

        for n in range(6):
            for g in all_labeled_graphs(n):
                rows = g._rows
                for alive in range(1 << n):
                    verdict, tier, order = _pure.decide(rows, alive)
                    want, sub = oracle(g, alive)
                    assert verdict == want == _pure.contractible_on(rows, alive), (g.edges(), alive)
                    if any(alive >> v & 1 and (rows[v] | 1 << v) & alive == alive for v in range(n)):
                        assert (tier, order) == (1, []), (g.edges(), alive)
                    elif len(components(sub)) != 1:
                        assert (verdict, tier, order) == (False, 2, []), (g.edges(), alive)
                    elif tier == 1:
                        # a pass's order replays as simple-point deletions to one vertex
                        left = alive
                        for v in order:
                            assert oracle(g, rows[v] & left)[0], (g.edges(), alive, order)
                            left ^= 1 << v
                        assert left.bit_count() == 1, (g.edges(), alive, order)

    def test_one_rim_table_per_decision(self, monkeypatch):
        """A cold decision on the dunce hat with 4 pendants reaches tier 3,
        whose nodes and child passes read the decision's one rim table: no
        rim mask of the graph's own rows is asked of `contractible_on` twice
        (nested rims are asked on their own dense rows)."""
        g = pendant_dunce_hat(4, 12)
        real, asked = _pure.contractible_on, []

        def counting(rows, mask):
            if rows is g._rows:
                asked.append(mask)
            return real(rows, mask)

        monkeypatch.setattr(_pure, "contractible_on", counting)
        kernels.clear_caches()
        try:
            assert _pure.decide(*on_all(g))[:2] == (False, 3)
        finally:
            kernels.clear_caches()
        assert asked and len(asked) == len(set(asked))


def rank_oracle(rows, mask):
    """The induced rows on ``mask``, each vertex renamed to its rank."""
    verts = [v for v in range(len(rows)) if mask >> v & 1]
    return tuple(sum(1 << i for i, u in enumerate(verts) if rows[v] >> u & 1) for v in verts)


class TestContractibleWithin:
    """`within` decides the subgraph on a mask of fixed rows, sharing one
    rim table between calls; every verdict, and every verdict it leaves in
    the table, must be the dense oracle's."""

    def test_every_mask_of_every_graph_up_to_5(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                rows, rims = g._rows, {}
                for alive in range(1 << n):
                    got = within(rows, alive, rims)
                    assert got == dense_oracle(rows, alive), (g.edges(), alive)
                for mask, verdict in rims.items():
                    assert verdict == dense_oracle(rows, mask), (g.edges(), mask)

    @settings(max_examples=150, deadline=None)
    @given(graphs_7_to_12_with_masks())
    def test_agrees_with_the_dense_oracle(self, case):
        rows, alive_masks = case
        rims: dict[int, bool] = {}
        for alive in alive_masks:
            assert within(rows, alive, rims) == dense_oracle(rows, alive)
        for mask, verdict in rims.items():
            assert verdict == dense_oracle(rows, mask)

    def test_stalled_passes_reach_the_exact_tiers(self):
        # the dunce hat stalls at once with the homology of a point, so only
        # tier 3 refutes it; a cycle and a two-point graph stall too
        n, rows = masks(dunce_hat())
        full = (1 << n) - 1
        rims: dict[int, bool] = {}
        assert within(rows, full, rims) is False
        for v in range(0, n, 7):
            assert within(rows, full ^ (1 << v), rims) == dense_oracle(rows, full ^ (1 << v))
        c_rows = cycle_graph(6)._rows
        assert within(c_rows, 0b111111, {}) is False
        assert within(c_rows, 0b011111, {}) is True
        assert within(c_rows, 0b001001, {}) is False
        assert within(c_rows, 0, {}) is False

    def test_disconnected_mask_is_refuted_before_the_exact_search(self, monkeypatch):
        # a point beside a 4-cycle: Euler characteristic 1, and the edge-rank
        # shortcut of tier 2 assumes a connected graph
        rows = build_graph(["p", "a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])._rows
        monkeypatch.setattr(_pure, "_exact", None)
        assert within(rows, 0b11111, {}) is False

    def test_subgraph_rows_reindexes_by_rank(self):
        rng = random.Random(8)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            mask = rng.getrandbits(g.order)
            assert _pure.subgraph_rows(g._rows, mask) == rank_oracle(g._rows, mask)

    def test_subgraph_rows_on_every_mask_up_to_5(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                for mask in range(1 << n):
                    assert _pure.subgraph_rows(g._rows, mask) == rank_oracle(g._rows, mask)

    def test_subgraph_rows_of_a_full_mask_is_the_callers_tuple(self):
        for g in (build_graph([]), build_graph(["a"]), octahedron(), path_graph(70)):
            assert _pure.subgraph_rows(*on_all(g)) is g._rows


# ---------------------------------------------------------------------------
# every query on a mask of the caller's rows against the induced graph


def masked_query(g, mask):
    """`decide`, `canon_bytes` and `cliques_by_size` on a mask of ``g``'s rows."""
    rows = g._rows
    return (
        _pure.decide(rows, mask),
        _pure.canon_bytes(rows, mask),
        _pure.cliques_by_size(rows, mask, mask.bit_count()),
    )


def induced_query(sub, verts):
    """The same queries on the induced graph ``sub`` and its full mask, with
    its vertex ``i`` named ``verts[i]``."""
    rows, full = on_all(sub)
    verdict, tier, order = _pure.decide(rows, full)
    groups = _pure.cliques_by_size(rows, full, sub.order)
    return (
        (verdict, tier, [verts[u] for u in order]),
        _pure.canon_bytes(rows, full),
        [[tuple(verts[u] for u in c) for c in group] for group in groups],
    )


def embedding_invariant(g, mask, seen=None) -> int:
    """Assert that the queries on ``mask`` answer as on the induced graph,
    and that a True order of tier 3 replays it to one vertex; the tier.
    ``seen`` keeps the induced answers by mask and induced rows."""
    verts = _pure._bits(mask)
    sub = induced_subgraph(g, [g.vertices[v] for v in verts])
    key = mask, sub._rows
    want = seen.get(key) if seen is not None else None
    if want is None:
        want = induced_query(sub, verts)
        if seen is not None:
            seen[key] = want
    got = masked_query(g, mask)
    assert got == want, (g.edges(), mask)
    verdict, tier, order = got[0]
    if verdict and tier == 3:
        trace = HomotopyTrace(tuple(DeletePoint(g.vertices[v]) for v in order))
        assert apply_trace(sub, trace).order == 1, (g.edges(), mask)
    return tier


@st.composite
def graphs_7_to_20_with_masks(draw):
    n = draw(st.integers(7, 20))
    density = draw(st.integers(1, 9))
    labels = [f"v{i}" for i in range(n)]
    pairs = itertools.combinations(labels, 2)
    edges = [pair for pair in pairs if draw(st.integers(0, 9)) < density]
    alive_masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    return build_graph(labels, edges), alive_masks


class TestEmbeddingInvariance:
    """A kernel query on a mask of the caller's rows answers as the same
    query on the induced graph, with the answer's vertices mapped back
    through the mask."""

    def test_every_mask_of_every_graph_up_to_5(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                for mask in range(1 << n):
                    embedding_invariant(g, mask)

    def test_a_deletion_mask_of_every_graph_on_6(self):
        """One ``G - v`` per graph, the deleted vertex cycling through all
        six (every mask of every graph takes minutes)."""
        full, seen = (1 << 6) - 1, {}
        for i, g in enumerate(all_labeled_graphs(6)):
            embedding_invariant(g, full ^ (1 << i % 6), seen)

    @settings(max_examples=150, deadline=None)
    @given(graphs_7_to_20_with_masks())
    def test_random_masks_of_larger_graphs(self, case):
        g, alive_masks = case
        for mask in alive_masks:
            embedding_invariant(g, mask)

    def test_tier_3_orders_replay_on_every_mask_up_to_5(self, monkeypatch):
        """With a greedy pass that deletes nothing, every contractible mask
        but a cone's reaches tier 3, and its order replays to one vertex."""
        monkeypatch.setattr(
            _pure, "_greedy", lambda rows, alive, rims=None, start=None: (alive, [])
        )
        kernels.clear_caches()
        tier_3 = 0
        try:
            for n in range(6):
                for g in all_labeled_graphs(n):
                    for mask in range(1 << n):
                        tier_3 += embedding_invariant(g, mask) == 3
        finally:
            kernels.clear_caches()
        assert tier_3 > 1000


# ---------------------------------------------------------------------------
# the canonical-form memo against the unmemoized form it replaced


def canon_oracle(rows, mask):
    """`canon_bytes` as it was before its memo: the refinement tree on the
    caller's rows cut to ``mask``, each component of a disconnected graph
    recomputed."""
    n = mask.bit_count()
    if n == 0:
        return _pure._EMPTY_KEY
    header = n.to_bytes(2, "big")
    if n == 1:
        return header + b"\x00"
    comps = _pure._component_masks(rows, mask)
    if len(comps) > 1:
        return header + b"\x01" + b"".join(sorted(canon_oracle(rows, c) for c in comps))
    cut = [0] * len(rows)
    buckets: dict[int, list[int]] = {}
    for v in _pure._bits(mask):
        cut[v] = rows[v] & mask
        buckets.setdefault(cut[v].bit_count(), []).append(v)
    rows = cut
    best = None
    stack = [_pure._refine(rows, [tuple(buckets[d]) for d in sorted(buckets)])]
    while stack:
        cells = stack.pop()
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            cand = _pure._pack(rows, [cell[0] for cell in cells])
            if best is None or cand < best:
                best = cand
            continue
        cell = cells[target]
        branched: list[int] = []
        for v in cell:
            if any(rows[u] == rows[v] or rows[u] ^ rows[v] == (1 << u) | (1 << v) for u in branched):
                continue
            branched.append(v)
            rest = tuple(w for w in cell if w != v)
            stack.append(_pure._refine(rows, cells[:target] + [(v,), rest] + cells[target + 1 :]))
    return header + b"\x00" + best


@pytest.fixture
def cold():
    kernels.clear_caches()
    yield
    kernels.clear_caches()


class TestCanonMemo:
    """`canon_bytes` is memoized on dense rows; its bytes must be the
    unmemoized form's, whether the table is cold or warm."""

    def test_every_mask_of_every_graph_up_to_5(self, cold):
        for n in range(6):
            for g in all_labeled_graphs(n):
                for mask in range(1 << n):
                    assert _pure.canon_bytes(g._rows, mask) == canon_oracle(g._rows, mask), (g.edges(), mask)

    def test_every_graph_on_6(self, cold):
        for g in all_labeled_graphs(6):
            assert _pure.canon_bytes(*on_all(g)) == canon_oracle(*on_all(g)), g.edges()

    @settings(max_examples=150, deadline=None)
    @given(graphs_7_to_20_with_masks())
    def test_larger_graphs_cold_and_warm(self, case):
        g, alive_masks = case
        asked = [(1 << g.order) - 1] + alive_masks
        want = [canon_oracle(g._rows, mask) for mask in asked]
        kernels.clear_caches()
        try:
            assert [_pure.canon_bytes(g._rows, mask) for mask in asked] == want
            assert [_pure.canon_bytes(g._rows, mask) for mask in asked] == want
        finally:
            kernels.clear_caches()

    def test_clear_caches_empties_the_table(self, cold):
        _pure.canon_bytes(*on_all(octahedron()))
        assert _pure._canon
        kernels.clear_caches()
        assert not _pure._canon

    def test_cap_holds(self, cold, monkeypatch):
        monkeypatch.setattr(_pure, "_MEMO_CAP", 3)
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 9), rng.random())
            assert _pure.canon_bytes(*on_all(g)) == canon_oracle(*on_all(g)), g.edges()
            assert len(_pure._canon) <= 3

    def test_cold_decide_canonicalizes_no_dense_graph_twice(self, cold, monkeypatch):
        """The exact search on the dunce hat with 4 pendants reaches its 16
        nodes on several paths each: without the memo it computes 33 forms."""
        real, computed = _pure._canon_dense, []

        def counting(rows):
            computed.append(rows)
            return real(rows)

        monkeypatch.setattr(_pure, "_canon_dense", counting)
        assert _pure.decide(*on_all(pendant_dunce_hat(4, 12)))[:2] == (False, 3)
        assert len(computed) == len(set(computed)) == 16


# ---------------------------------------------------------------------------
# the lazy greedy pass against the eager one


@st.composite
def graphs_7_to_14_with_starts(draw):
    n = draw(st.integers(7, 14))
    density = draw(st.integers(1, 9))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 9)) < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    # labels whose order is not the index order ("v10" < "v2")
    labels = [f"v{i}" for i in draw(st.permutations(range(n)))]
    full = (1 << n) - 1
    starts = [None] + draw(st.lists(st.integers(0, full), max_size=4))
    return n, rows, labels, starts


def in_label_order(rows, labels):
    """The rows of ``Graph(labels, rows)``, whose indices follow label
    order, and the index each vertex of ``rows`` moves to."""
    g = Graph(tuple(labels), tuple(rows))
    return g._rows, [g._index[lab] for lab in labels]


def moved(mask, where):
    return sum(1 << where[v] for v in _pure._bits(mask))


class TestLazyGreedy:
    """The lazy pass deletes the same vertices in the same order as the
    eager pass it replaced (`conftest.eager_greedy`). On the rows of a
    `Graph` its index tie-break is a label tie-break: relabeled so that
    label order is some permutation of the indices, a graph reduces as the
    eager pass does with that permutation as its tie-break."""

    def test_every_graph_up_to_6(self):
        for n in range(7):
            for g in all_labeled_graphs(n):
                assert _pure._greedy(*on_all(g)) == eager_greedy(n, g._rows), g.edges()

    def test_every_tie_order_up_to_4(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                for tie in itertools.permutations(range(n)):
                    rows, where = in_label_order(g._rows, [f"w{t}" for t in tie])
                    alive, order = eager_greedy(n, g._rows, tie)
                    want = moved(alive, where), [where[v] for v in order]
                    assert _pure._greedy(rows, (1 << n) - 1) == want, (g.edges(), tie)

    @settings(max_examples=300, deadline=None)
    @given(graphs_7_to_14_with_starts())
    def test_agrees_with_the_eager_pass(self, case):
        n, rows, labels, starts = case
        by_label, where = in_label_order(rows, labels)
        rims: dict[int, bool] = {}
        label_rims: dict[int, bool] = {}
        for start in starts:
            alive = (1 << n) - 1 if start is None else start
            want = eager_greedy(n, rows, None, start)
            assert _pure._greedy(rows, alive) == want
            assert _pure._greedy(rows, alive, rims) == want
            rest, order = eager_greedy(n, rows, labels, start)
            want = moved(rest, where), [where[v] for v in order]
            assert _pure._greedy(by_label, moved(alive, where)) == want
            assert _pure._greedy(by_label, moved(alive, where), label_rims) == want
        for mask, verdict in rims.items():
            assert verdict == dense_oracle(rows, mask)
        for mask, verdict in label_rims.items():
            assert verdict == dense_oracle(by_label, mask)

    def test_reduce_keeps_the_eager_order_on_shells(self):
        from digitopo.covers import BoxCell
        from digitopo.digitizer import cubical_model, model_graph, shape_sphere

        for r, w in (("3/2", "2"), ("2", "5/2")):
            window = BoxCell.make([f"-{w}"] * 3, [w] * 3)
            g = model_graph(cubical_model(shape_sphere(r), window, "1/4"))
            assert g.order > 500
            alive, order = eager_greedy(g.order, g._rows, g._labels)
            residue, trace = reduce(g)
            assert [s.v for s in trace.steps] == [g._labels[v] for v in order]
            assert residue.order == alive.bit_count()


def flipped_residues(graphs):
    """``(rows, start)`` for every vertex-pair flip of the `reduce` residue
    of each graph: the start mask holds the pair and its common neighbors,
    the only vertices whose rims the flip changed."""
    for g in graphs:
        residue, _ = reduce(g)
        for i, j in itertools.combinations(range(residue.order), 2):
            rows = list(residue._rows)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            yield tuple(rows), rows[i] & rows[j] | 1 << i | 1 << j


def catalog_graphs():
    from digitopo.catalog import get, names

    return [get(name).graph for name in names()]


class TestStartMask:
    """A pass that starts where the rims changed deletes what a pass from
    every vertex deletes, in the same order, when the other rims are not
    contractible: on a flipped residue of `reduce`."""

    def test_every_flip_of_every_catalog_residue(self):
        flips = 0
        for rows, start in flipped_residues(catalog_graphs()):
            full = (1 << len(rows)) - 1
            # and with the indices reversed, so ties fall the other way
            n = len(rows)
            reverse, where = in_label_order(rows, [f"u{n - i:03d}" for i in range(n)])
            for rows, start in ((rows, start), (reverse, moved(start, where))):
                want = _pure._greedy(rows, full)
                assert _pure._greedy(rows, full, start=start) == want, (rows, start)
            flips += 1
        assert flips == 462

    @settings(max_examples=150, deadline=None)
    @given(graphs_7_to_14_with_starts())
    def test_every_flip_of_random_residues(self, case):
        n, rows, labels, _ = case
        for rows, start in flipped_residues([Graph(tuple(labels), tuple(rows))]):
            full = (1 << len(rows)) - 1
            want = _pure._greedy(rows, full)
            assert _pure._greedy(rows, full, start=start) == want, (rows, start)

    def test_a_stuck_flip_tests_the_start_vertices_alone(self, monkeypatch):
        """When the flip makes no vertex simple, the pass tests the rim of
        every start vertex once and no other rim."""
        real, tested = _pure._simple, []

        def recording(rows, v, alive, rims):
            tested.append(v)
            return real(rows, v, alive, rims)

        monkeypatch.setattr(_pure, "_simple", recording)
        stuck = 0
        for rows, start in flipped_residues(catalog_graphs()):
            tested.clear()
            if _pure._greedy(rows, (1 << len(rows)) - 1, start=start)[1]:
                continue
            stuck += 1
            assert sorted(tested) == _pure._bits(start), (rows, start)
        assert stuck > 100


class TestTiers:
    """Each tier decides the case it exists for, and says so."""

    def test_greedy_reduces_the_wheel(self):
        assert whole(wheel(6)) == (True, 1)
        # no vertex of these is adjacent to all others, so the pass runs
        assert whole(path_graph(6)) == (True, 1)
        assert whole(chebyshev_block(4, dim=2)) == (True, 1)

    def test_homology_refutes_the_octahedron(self):
        assert whole(octahedron()) == (False, 2)

    def test_homology_refutes_the_rim_of_an_interior_cube(self):
        # a 26-vertex 2-sphere; the exact search alone took minutes on it
        g = rim(chebyshev_block(3), "q1_1_1")
        assert g.order == 26
        start = time.perf_counter()
        assert whole(g) == (False, 2)
        assert time.perf_counter() - start < 10

    def test_disconnected_is_refuted_by_homology(self):
        assert whole(build_graph(["a", "b"])) == (False, 2)

    def test_integer_homology_refutes_odd_torsion(self):
        # H_1 = Z/3 is invisible over GF(2), so GF(2) ranks sent this to tier 3
        g = mod3_moore_space()
        assert euler_characteristic(g) == 1 and homology(g).betti_z2 == (1, 0, 0)
        assert whole(g) == (False, 2)

    def test_tier_2_is_exact(self):
        """Tier 2 accepts exactly the graphs whose integer homology is a
        point's, on every graph up to 6 vertices (one per isomorphism class)
        and the graphs above. Up to 6 vertices there is no torsion, so GF(2)
        ranks, which decided tier 2 before, give the same answers."""
        classes = {canonical_key(g): g for n in range(1, 7) for g in all_labeled_graphs(n)}
        cases = list(classes.values()) + [
            wheel(6),
            path_graph(6),
            chebyshev_block(4, dim=2),
            octahedron(),
            rim(chebyshev_block(3), "q1_1_1"),
            build_graph(["a", "b"]),
            dunce_hat(),
            mod3_moore_space(),
        ]
        for g in cases:
            prof = collapse_homology(g)
            point = prof.betti_q[0] == 1 and not any(prof.betti_q[1:]) and not any(prof.torsion)
            assert _pure._acyclic(*on_all(g)) == point, g.edges()
            if g.order <= 6:
                assert point == (prof.betti_z2[0] == 1 and not any(prof.betti_z2[1:]))

    def test_tier_2_streams_the_euler_characteristic(self):
        """A residue whose Euler characteristic is not 1 is refuted without
        its cliques being held: a cold `reduce` of the minimal 10-sphere
        (177,146 cliques; its rims, smaller minimal spheres, reach tier 2
        too) peaks under 1 MiB of Python allocations."""
        g = minimal_sphere(10)
        kernels.clear_caches()
        tracemalloc.start()
        try:
            residue, _ = reduce(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residue.order == g.order
        assert peak < 1 << 20, peak

    def test_exact_search_decides_the_dunce_hat(self):
        g = dunce_hat()
        n, rows = masks(g)
        # stalls at once with the homology of a point
        assert not any(_pure.contractible_on(rows, r) for r in rows)
        assert euler_characteristic(g) == 1
        assert homology(g).betti_z2 == (1, 0, 0)
        assert _pure.decide(rows, (1 << n) - 1) == (False, 3, [])
        assert kernels.contractible_on(rows, (1 << n) - 1) is False
        assert contraction_order(n, rows) is None


class TestRobustness:
    def test_solid_block_reduces_to_a_point(self):
        g = chebyshev_block(3)
        start = time.perf_counter()
        residue, trace = reduce(g)
        assert residue.order == 1 and len(trace) == 26
        assert kernels.contractible_on(*on_all(g)) is True
        assert time.perf_counter() - start < 10

    def test_long_path_is_cheap(self):
        start = time.perf_counter()
        assert kernels.contractible_on(*on_all(path_graph(160))) is True
        # the exact search alone took about ten seconds
        assert time.perf_counter() - start < 2

    def test_large_clique_does_not_nest_rim_tests(self):
        assert kernels.contractible_on(*on_all(complete_graph(400))) is True

    def test_large_clique_reduces_in_quadratic_time(self):
        # every rim of a clique is a cone; building the rims' rows after
        # each deletion took minutes
        g = complete_graph(300)
        start = time.perf_counter()
        residue, trace = reduce(g)
        order = contraction_order(*masks(g))
        assert residue.order == 1 and len(trace) == 299
        assert len(order) == len(set(order)) == 299
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("k", [5, 6, 8])
    def test_king_grid_annulus_is_refuted_quickly(self, k):
        # a k x k king grid minus an interior vertex is a digital annulus;
        # an exact search alone tries every deletion order on it (seconds at
        # k = 5, minutes at k = 6)
        block = chebyshev_block(k, dim=2)
        g = induced_subgraph(block, set(block.vertices) - {f"q{k // 2}_{k // 2}"})
        assert g.order == k * k - 1
        kernels.clear_caches()
        start = time.perf_counter()
        assert kernels.contractible_on(*on_all(g)) is False
        assert contraction_order(*masks(g)) is None
        assert time.perf_counter() - start < 2

    def test_canonical_form_of_a_star_does_not_recurse(self):
        leaves = [f"l{i}" for i in range(200)]
        star = build_graph(leaves + ["hub"], [("hub", leaf) for leaf in leaves])
        moved = relabeled(star, {"hub": "a", "l0": "hub", "l1": "l0"})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert canonical_key(star) == canonical_key(moved)
        finally:
            sys.setrecursionlimit(limit)


class TestContractionOrder:
    def test_witness_replays(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            n, rows = masks(g)
            order = contraction_order(n, rows)
            if kernels.contractible_on(rows, (1 << n) - 1):
                assert order is not None and len(order) == n - 1
                # replay: each deleted vertex has a contractible rim at its moment
                alive = (1 << n) - 1
                cur = list(rows)
                for v in order:
                    rmask = cur[v] & alive
                    assert kernels.contractible_on(cur, rmask), "deleted vertex was not simple"
                    alive ^= 1 << v
                    cur = [r & ~(1 << v) for r in cur]
                assert alive.bit_count() == 1
            else:
                assert order is None

    def test_memo_does_not_poison_witness(self):
        g = wheel(5)
        assert is_contractible(g)
        # ask twice: cached decision, fresh witness
        verdict, trace = is_contractible(g, return_trace=True)
        assert verdict and len(trace) == g.order - 1
        assert is_contractible(g, return_trace=True) == (verdict, trace)

    @pytest.mark.parametrize("g", [path_graph(8), wheel(6)], ids=["path", "wheel"])
    def test_cold_traced_decision_runs_one_greedy_pass(self, g, monkeypatch):
        # one `decide` call gives the verdict and the order; a cone (the
        # wheel) gets its one pass from `homotopy.is_contractible` itself
        import digitopo.homotopy

        real, passes = _pure._greedy, []

        def counting(*args, **kwargs):
            passes.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(_pure, "_greedy", counting)
        monkeypatch.setattr(digitopo.homotopy, "_greedy", counting)
        kernels.clear_caches()
        verdict, trace = is_contractible(g, return_trace=True)
        assert verdict and len(trace) == g.order - 1
        assert passes == [(1 << g.order) - 1]

    def test_every_trace_up_to_6_replays_to_a_point(self):
        for n in range(7):
            for g in all_labeled_graphs(n):
                verdict, trace = is_contractible(g, return_trace=True)
                assert verdict == kernels.contractible_on(*on_all(g)), g.edges()
                if verdict:
                    assert apply_trace(g, trace).order == 1, g.edges()
                else:
                    assert trace is None, g.edges()


def clique_sizes(g, cap=9):
    return [len(group) for group in _pure.cliques_by_size(*on_all(g), cap)]


class TestCliqueCounts:
    """Group sizes of the one clique walk, which end at the clique number."""

    def test_c4(self):
        assert clique_sizes(cycle_graph(4)) == [4, 4]

    def test_k4(self):
        assert clique_sizes(complete_graph(4)) == [4, 6, 4, 1]

    def test_octahedron_triangles(self):
        assert clique_sizes(octahedron()) == [6, 12, 8]

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            clique_sizes(complete_graph(5), 4)

    def test_counts_match_brute_force(self):
        import itertools

        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng, 8, 0.6)
            counts = clique_sizes(g)
            assert clique_vector(g) == tuple(counts)
            for k in range(1, 9):
                brute = sum(
                    1
                    for sub in itertools.combinations(g.vertices, k)
                    if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                )
                assert (counts[k - 1] if k <= len(counts) else 0) == brute
