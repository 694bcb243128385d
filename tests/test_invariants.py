"""Invariants against independent dense oracles.

The oracle pipeline shares nothing with the production one: simplices come
from itertools subsets checked pairwise, ranks from dense Fraction
elimination (no collapses, no Smith form, no bitmasks), and elementary
divisors of small integer matrices from the gcd-of-minors formula.

A second oracle is the homology pipeline the package used before its
coreduction engine: elementary collapses, then Smith diagonalization over
the integers and a separate bitmask elimination over GF(2). It is exact and
fast enough for catalog surfaces, joins and grown manifolds.
"""

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    dunce_hat,
    mod3_moore_space,
    octahedron,
    point_pair,
    random_contractible_graph,
    random_graph,
)
from digitopo._kernels._pure import cliques
from digitopo._smith import smith_diagonal
from digitopo.graph import GraphError, build_graph, join
from digitopo.invariants import (
    CLIQUE_CAP,
    HomologyProfile,
    clique_vector,
    euler_characteristic,
    homology,
    invariant_report,
    same_profile,
)


# ---------------------------------------------------------------------------
# oracle


def oracle_simplices(g):
    verts = sorted(g.vertices)
    out = []
    for k in range(1, len(verts) + 1):
        layer = [
            s
            for s in itertools.combinations(verts, k)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(s, 2))
        ]
        if not layer:
            break
        out.append(layer)
    return out


def dense_rank_q(matrix):
    """Gaussian elimination over Fractions; matrix is list of rows."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def dense_rank_2(matrix):
    m = [[x % 2 for x in row] for row in matrix]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def oracle_boundaries(layers):
    """Dense boundary matrices (rows: faces, cols: simplices)."""
    mats = []
    for k in range(1, len(layers)):
        lower = {s: i for i, s in enumerate(layers[k - 1])}
        mat = [[0] * len(layers[k]) for _ in range(len(layers[k - 1]))]
        for j, s in enumerate(layers[k]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                mat[lower[face]][j] = -1 if i % 2 else 1
        mats.append(mat)
    return mats


def oracle_betti(g):
    layers = oracle_simplices(g)
    if not layers:
        return [], []
    mats = oracle_boundaries(layers)
    rq = [0] + [dense_rank_q(m) for m in mats] + [0]
    r2 = [0] + [dense_rank_2(m) for m in mats] + [0]
    bq = [len(layers[k]) - rq[k] - rq[k + 1] for k in range(len(layers))]
    b2 = [len(layers[k]) - r2[k] - r2[k + 1] for k in range(len(layers))]
    return bq, b2


def oracle_euler(g):
    return sum((-1) ** k * len(layer) for k, layer in enumerate(oracle_simplices(g)))


def minors_gcd_divisors(matrix):
    """Elementary divisors via gcd of k-minors; tiny matrices only."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = 1
            for i in range(k):
                prod *= matrix[idx_r[i]][idx_c[perm[i]]]
            total += sign * prod
        return total

    divisors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ir in itertools.combinations(range(rows), k):
            for ic in itertools.combinations(range(cols), k):
                g = gcd(g, det(ir, ic))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


# ---------------------------------------------------------------------------
# the collapse pipeline: cliques in label order, elementary collapses, then
# one Smith diagonalization and one GF(2) elimination per dimension


def gf2_rank(cols):
    """Rank over GF(2) of a matrix whose columns are bitmasks over rows."""
    pivots = {}
    rank = 0
    for col in cols:
        c = col
        while c:
            h = c.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = c
                rank += 1
                break
            c ^= p
    return rank


def collapse(by_size):
    """Remove a simplex with exactly one coface together with that coface,
    until none is left."""
    alive = [set(group) for group in by_size]
    cofaces = {}
    for k in range(1, len(alive)):
        for s in alive[k]:
            for i in range(len(s)):
                cofaces.setdefault(s[:i] + s[i + 1 :], set()).add(s)
    queue = deque(s for group in alive for s in sorted(group) if len(cofaces.get(s, ())) == 1)
    while queue:
        sigma = queue.popleft()
        k = len(sigma) - 1
        if k >= len(alive) or sigma not in alive[k]:
            continue
        cf = cofaces.get(sigma)
        if not cf or len(cf) != 1:
            continue
        (tau,) = cf
        alive[k].discard(sigma)
        alive[k + 1].discard(tau)
        for s in (sigma, tau):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                owners = cofaces.get(face) if face else None
                if owners is not None:
                    owners.discard(s)
                    if len(owners) == 1 and face in alive[len(face) - 1]:
                        queue.append(face)
        cofaces.pop(sigma, None)
    while alive and not alive[-1]:
        alive.pop()
    return alive


def collapse_homology(g):
    order = sorted(range(g.order), key=g._labels.__getitem__)
    rank = {v: k for k, v in enumerate(order)}
    rows = [0] * g.order
    for i, r in enumerate(g._rows):
        for j in range(g.order):
            if r >> j & 1:
                rows[rank[i]] |= 1 << rank[j]
    by_size = [[] for _ in range(CLIQUE_CAP)]
    try:
        for c in cliques(rows, (1 << g.order) - 1, CLIQUE_CAP):
            by_size[len(c) - 1].append(c)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    while by_size and not by_size[-1]:
        by_size.pop()
    top = len(by_size)
    if top == 0:
        return HomologyProfile((), (), ())
    simplices = [sorted(group) for group in collapse(by_size)]
    index = [{s: i for i, s in enumerate(group)} for group in simplices]
    ranks_q = [0] * (len(simplices) + 1)
    ranks_2 = [0] * (len(simplices) + 1)
    torsion = {}
    for k in range(1, len(simplices)):
        cols, bits = [], []
        for s in simplices[k]:
            col, mask = {}, 0
            for i in range(len(s)):
                r = index[k - 1][s[:i] + s[i + 1 :]]
                col[r] = -1 if i % 2 else 1
                mask |= 1 << r
            cols.append(col)
            bits.append(mask)
        diag = smith_diagonal(cols)
        ranks_q[k] = len(diag)
        if any(d > 1 for d in diag):
            torsion[k - 1] = tuple(d for d in diag if d > 1)
        ranks_2[k] = gf2_rank(bits)
    betti_q, betti_2 = [], []
    for k in range(top):
        nk = len(simplices[k]) if k < len(simplices) else 0
        betti_q.append(nk - ranks_q[k] - ranks_q[k + 1] if k < len(simplices) else 0)
        betti_2.append(nk - ranks_2[k] - ranks_2[k + 1] if k < len(simplices) else 0)
    return HomologyProfile(
        tuple(betti_q), tuple(betti_2), tuple(torsion.get(k, ()) for k in range(top))
    )


def _graph_from_draw(draw, lo, hi, prefix="v"):
    n = draw(st.integers(lo, hi))
    density = draw(st.integers(1, 9))
    vs = [f"{prefix}{i}" for i in range(n)]
    edges = [(a, b) for a, b in itertools.combinations(vs, 2) if draw(st.integers(0, 9)) < density]
    return build_graph(vs, edges)


@st.composite
def complexes(draw):
    """Random clique complexes, suspensions, joins, catalog surfaces and
    manifolds grown from them."""
    from digitopo.catalog import get
    from digitopo.transform import fresh_label, r_transform

    kind = draw(st.sampled_from(["random", "suspension", "join", "surface", "grown"]))
    if kind == "random":
        return _graph_from_draw(draw, 7, 12)
    if kind == "suspension":
        return join(_graph_from_draw(draw, 3, 9), point_pair())
    surface = get(draw(st.sampled_from(["torus16", "klein16", "rp11", "moebius12", "icosahedron"]))).graph
    if kind == "join":
        return join(surface, _graph_from_draw(draw, 1, 4, prefix="j"))
    if kind == "surface":
        return surface
    rng = random.Random(draw(st.integers(0, 2**16)))
    g = surface
    for _ in range(draw(st.integers(1, 12))):
        u, v = rng.choice(g.edges())
        g, _ = r_transform(g, u, v, fresh_label(g))
    return g


# ---------------------------------------------------------------------------
# tests


class TestCliqueVector:
    def test_c4(self):
        assert clique_vector(cycle_graph(4)) == (4, 4)

    def test_octahedron(self):
        assert clique_vector(octahedron()) == (6, 12, 8)

    def test_k4(self):
        assert clique_vector(complete_graph(4)) == (4, 6, 4, 1)

    def test_prefix_invariants(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng, 9, 0.5)
            cv = clique_vector(g)
            if cv:
                assert cv[0] == g.order
            if len(cv) > 1:
                assert cv[1] == g.size

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            clique_vector(complete_graph(CLIQUE_CAP + 1))


class TestEuler:
    def test_point(self):
        assert euler_characteristic(build_graph(["a"])) == 1

    def test_octahedron(self):
        assert euler_characteristic(octahedron()) == 2

    def test_torus16_from_counts(self):
        from digitopo.catalog import get

        t = get("torus16").graph
        assert clique_vector(t) == (16, 48, 32)
        assert euler_characteristic(t) == 0

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            assert euler_characteristic(g) == oracle_euler(g)


class TestHomology:
    def test_c4_circle(self):
        assert homology(cycle_graph(4)).betti_q == (1, 1)

    def test_matches_dense_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            prof = homology(g)
            bq, b2 = oracle_betti(g)
            assert list(prof.betti_q) == bq, g.edges()
            assert list(prof.betti_z2) == b2, g.edges()

    def test_catalog_surfaces_match_oracle(self):
        from digitopo.catalog import get

        for name in ("torus16", "klein16", "rp11", "moebius12", "icosahedron"):
            g = get(name).graph
            prof = homology(g)
            bq, b2 = oracle_betti(g)
            assert list(prof.betti_q) == bq, name
            assert list(prof.betti_z2) == b2, name

    def test_klein16_and_rp11_torsion(self):
        from digitopo.catalog import get

        assert homology(get("klein16").graph).torsion == ((), (2,), ())
        assert homology(get("rp11").graph).torsion == ((), (2,), ())

    def test_euler_poincare_identity(self):
        rng = random.Random(29)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            prof = homology(g)
            alt = sum((-1) ** k * b for k, b in enumerate(prof.betti_q))
            assert alt == euler_characteristic(g)

    def test_b0_counts_components(self):
        from digitopo.graph import components

        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), 0.25)
            assert homology(g).betti_q[0] == len(components(g))

    def test_contractible_graphs_have_point_homology(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_contractible_graph(rng, rng.randint(1, 9))
            prof = homology(g)
            assert prof.betti_q[0] == 1 and all(b == 0 for b in prof.betti_q[1:])
            assert all(t == () for t in prof.torsion)

    def test_join_euler_rule(self):
        from digitopo.catalog import get, names

        graphs = [get(n).graph for n in names() if get(n).graph.order <= 12]
        for a, b in itertools.combinations(graphs, 2):
            j = join(a, b)
            assert 1 - euler_characteristic(j) == (1 - euler_characteristic(a)) * (
                1 - euler_characteristic(b)
            )

    @settings(max_examples=120, deadline=None)
    @given(complexes())
    def test_matches_the_collapse_pipeline(self, g):
        try:
            want = collapse_homology(g)
        except GraphError:
            with pytest.raises(GraphError, match="cap"):
                homology(g)
            return
        assert homology(g) == want, g.edges()

    def test_dunce_hat_and_odd_torsion(self):
        assert homology(dunce_hat()) == collapse_homology(dunce_hat())
        assert homology(dunce_hat()).betti_q == (1, 0, 0)
        moore = mod3_moore_space()
        assert homology(moore) == collapse_homology(moore)
        assert homology(moore) == HomologyProfile((1, 0, 0), (1, 0, 0), ((), (3,), ()))

    def test_report_shape(self):
        rep = invariant_report(cycle_graph(4))
        assert rep == {"euler": 0, "betti_q": [1, 1], "betti_z2": [1, 1], "torsion": [[], []]}


class TestSmith:
    def test_known_divisors(self):
        # diag(2,6) has divisors 2, 6
        d = smith_diagonal([{0: 2}, {1: 6}])
        assert d == [2, 6]

    def test_divisibility_normalization(self):
        # diag(4, 6) ~ (2, 12): same group, chain normalized
        d = smith_diagonal([{0: 4}, {1: 6}])
        assert d == [2, 12]

    def test_against_minors_gcd(self):
        rng = random.Random(41)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            want = minors_gcd_divisors(mat)
            columns = [
                {i: mat[i][j] for i in range(rows) if mat[i][j]} for j in range(cols)
            ]
            got = smith_diagonal(columns)
            assert got == want, mat

    def test_every_small_2x2(self):
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
            mat = [[a, b], [c, d]]
            assert smith_diagonal([{0: a, 1: c}, {0: b, 1: d}]) == minors_gcd_divisors(mat), mat

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda rows: st.lists(
                st.lists(st.integers(-9, 9), min_size=rows, max_size=rows), min_size=1, max_size=5
            )
        )
    )
    def test_against_minors_gcd_up_to_5x5(self, cols):
        # columns as drawn, explicit zeros included
        mat = [list(row) for row in zip(*cols)]
        assert smith_diagonal([dict(enumerate(col)) for col in cols]) == minors_gcd_divisors(mat)

    def test_empty_columns_and_explicit_zeros(self):
        assert smith_diagonal([{}, {0: 0}, {1: 2}]) == [2]
        assert smith_diagonal([{}, {}]) == []
        assert smith_diagonal([]) == []

    def test_gf2_rank_matches_dense(self):
        rng = random.Random(43)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            bits = [sum(1 << i for i in range(rows) if mat[i][j]) for j in range(cols)]
            assert gf2_rank(bits) == dense_rank_2(mat)


class TestProfileComparison:
    def test_padded_equality(self):
        from digitopo.invariants import HomologyProfile

        a = HomologyProfile((1, 1), (1, 1), ((), ()))
        b = HomologyProfile((1, 1, 0), (1, 1, 0), ((), (), ()))
        assert same_profile(a, b)
        c = HomologyProfile((1, 1, 0), (1, 2, 0), ((), (2,), ()))
        assert not same_profile(a, c)
