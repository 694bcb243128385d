#!/usr/bin/env python3
"""Benchmark the kernels, the package layers above them, and one workload.

Micro rows call the kernel functions directly on graphs shaped like the
package's real call sites (`canon_bytes` and `contractible_on` after
clearing their memo tables); layer rows time `cubical_model` (a 2-D region,
a 2-D hypersurface, a polyline and a 3-D sphere), `model_graph` (the
sphere's and the region's models), the growth loop of perfbench
`recognize` (`_grown`: seeded edge-to-point replacements, each drawing
from `Graph.edges()`) for each grown input below, cold-cache
`classify` (grown spheres, a grown torus as a negative for the sphere
clause, and the minimal 20-sphere, whose time is all rim walk), cold-cache
`reduce` of 3-D sphere shells (the `digitize` hot path) and `homology` of
their residues, `homology` of a seeded random 20-vertex graph and
`smith_diagonal` on the largest matrix its coreduction leaves (39 rows,
79 columns), a cold `reduce` of the minimal 12-sphere, every residue and
rim of which tier 2 refutes by its Euler characteristic, with its
tracemalloc peak, tier 2 of contractibility on the dunce hat, a cold tier-3
`decide` (the exact search, whose memo keeps refutations only) on the
dunce hat, which has no simple point, so the search refutes its root at
once, and on the dunce hat with pendant vertices at every 12th (4
pendants) and every 8th (6 pendants) of its vertices, whose search visits
one node per set of deleted pendants (each row prints its search nodes,
the calls of `_pure._greedy_order`, its calls of `contractible_on`,
nested rims included, and the canonical forms it computed, the calls of
`_pure._canon_dense`), a cold `homotopy_equivalent` of `torus16` against
a seeded 17-vertex copy, the heaviest `certify` equivalence kind, with
the canonical forms it asked for (`canon_bytes`) and computed and its rim
tests, a cold
traced `homotopy.is_contractible` on a 160-vertex path with its number
of greedy passes (`_pure._greedy`), two warm rows whose every call is a
memo hit (`graph.canonical_key` of the 2-sphere grown to 120 vertices,
untraced `is_contractible` of the 160-vertex path), and
the cover operations on the brick-wall torus, each on a fresh cover
(a cover computes its nerve once and keeps it), alone and together as one
`certify`-shaped cover task, plus validation and the cover task (validate,
nerve, no trace) on the invalid aligned-grid torus; the macro row runs sphere
recognition, a 3-D digitization and a cover validation once, after clearing
every memo table. Each `contractible_on` row also prints the tier that
decides it (`_pure.decide`), and each `classify`, `reduce` and
`homotopy_equivalent` row the number of rim tests (calls of
`_pure._simple`, the one rim test) in one cold run; each `classify` row
also prints its reindexes (calls of `_pure.subgraph_rows`, from the walk
and from the rim tests).

Usage: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from fractions import Fraction as F

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from digitopo import _kernels as kernels  # noqa: E402
from digitopo import _smith  # noqa: E402
from digitopo._kernels import _pure  # noqa: E402
from digitopo.invariants import CLIQUE_CAP  # noqa: E402


def _inputs():
    """Workloads shaped like the package's real call sites.

    Contractibility rows cover each tier of the kernel: graphs the
    greedy pass reduces to a point (a 40-vertex path and a 40-vertex graph
    grown by attaching points over contractible rims; neither is a cone,
    which `decide` answers before any pass) and stuck residues whose
    homology refutes contractibility (the torus, the 3-sphere, and the
    26-vertex rim of an interior cube of the 3x3x3 solid block of
    Chebyshev-adjacent cubes, the rim test that dominates reducing solid
    3-D models).
    """
    import itertools
    import random

    from conftest import path_graph, random_contractible_graph
    from digitopo.catalog import get
    from digitopo.classify import minimal_sphere
    from digitopo.covers import BoxCell
    from digitopo.digitizer import cubical_model, model_graph, shape_circle
    from digitopo.graph import build_graph, rim

    canon_graphs = {
        "torus16": get("torus16").graph,
        "rp11": get("rp11").graph,
        "minimal 3-sphere": minimal_sphere(3),
        "minimal 4-sphere": minimal_sphere(4),
        "circle model (1/4)": model_graph(
            cubical_model(shape_circle(), BoxCell.make([-2, -2], [2, 2]), "1/4")
        ),
    }
    cubes = list(itertools.product(range(3), repeat=3))
    block = build_graph(
        [str(c) for c in cubes],
        [
            (str(a), str(b))
            for a, b in itertools.combinations(cubes, 2)
            if max(abs(x - y) for x, y in zip(a, b)) == 1
        ],
    )
    contract_graphs = {
        "path-40 (contractible)": path_graph(40),
        "grown-40 (contractible)": random_contractible_graph(random.Random(5), 40),
        "torus16 (irreducible)": get("torus16").graph,
        "minimal 3-sphere (irreducible)": minimal_sphere(3),
        "26-vertex cube rim (irreducible)": rim(block, str((1, 1, 1))),
    }
    return canon_graphs, contract_graphs


def _time(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _table(rows_spec):
    print(f"{'workload':50s}{'time':>12s}")
    for label, g, call, *note in rows_spec:
        t = _time(lambda: call(g._rows, (1 << g.order) - 1))
        print(f"{label:50s}{t * 1e3:>10.2f}ms" + "".join(note))


def micro():
    canon_graphs, contract_graphs = _inputs()
    spec = []
    for gname, g in canon_graphs.items():
        spec.append(
            (f"canon_bytes {gname}", g, lambda r, m: (kernels.clear_caches(), kernels.canon_bytes(r, m)))
        )
    for gname, g in contract_graphs.items():
        spec.append(
            (
                f"contractible_on {gname}",
                g,
                lambda r, m: (kernels.clear_caches(), kernels.contractible_on(r, m)),
                f"{'tier':>10s} {kernels.decide(g._rows, (1 << g.order) - 1)[1]}",
            )
        )
    for gname, g in canon_graphs.items():
        if g.order <= 20:
            spec.append(
                (f"cliques_by_size {gname}", g, lambda r, m: _pure.cliques_by_size(r, m, CLIQUE_CAP))
            )
    _table(spec)


def _grown(g, order: int, seed: int):
    """``g`` grown to ``order`` vertices by seeded edge-to-point
    replacements, as in the `recognize` workload of perfbench; they keep
    the homotopy and manifold type."""
    import random

    from digitopo.transform import fresh_label, r_transform

    rng = random.Random(seed)
    while g.order < order:
        u, v = rng.choice(g.edges())
        g, _ = r_transform(g, u, v, fresh_label(g))
    return g


def _calls(fn, name: str) -> int:
    """Calls of ``_pure.<name>`` in one run of ``fn``: the wrapper replaces
    it in every loaded `digitopo` module that holds it, then is removed."""
    real, count = getattr(_pure, name), [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    holders = [
        m
        for key, m in list(sys.modules.items())
        if key.split(".")[0] == "digitopo" and getattr(m, name, None) is real
    ]
    for m in holders:
        setattr(m, name, counting)
    try:
        fn()
    finally:
        for m in holders:
            setattr(m, name, real)
    return count[0]


def _largest_matrix(fn) -> list[dict[int, int]]:
    """The matrix with the most nonzeros that one run of ``fn`` passes to
    `smith_diagonal`, which reads its argument without changing it."""
    real, seen = _smith.smith_diagonal, []

    def keeping(columns):
        seen.append(columns)
        return real(columns)

    _smith.smith_diagonal = keeping
    try:
        fn()
    finally:
        _smith.smith_diagonal = real
    return max(seen, key=lambda cols: sum(map(len, cols)))


def layers():
    import random

    import digitopo
    from conftest import (
        aligned_grid_torus_cover,
        brick_wall_torus_cover,
        dunce_hat,
        path_graph,
        pendant_dunce_hat,
        random_graph,
    )
    from digitopo.catalog import get
    from digitopo.classify import classify, minimal_sphere
    from digitopo.covers import BoxCell, boundary_trace_cover, nerve, validate_lcl
    from digitopo.digitizer import (
        ShapeSpec,
        cubical_model,
        model_graph,
        shape_annulus,
        shape_circle,
        shape_sphere,
    )
    from digitopo.graph import canonical_key
    from digitopo.homotopy import homotopy_equivalent, is_contractible, reduce
    from digitopo.invariants import homology

    print(f"\n{'layer':50s}{'time':>12s}")
    zigzag = ShapeSpec("curve", points=((F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2))))
    square = BoxCell.make([-2] * 2, [2] * 2)
    annulus = ("2-D annulus region", shape_annulus("3/4", "3/2"), square, "1/10")
    sphere = ("3-D sphere", shape_sphere(), BoxCell.make([-2] * 3, [2] * 3), "1/3")
    for label, shape, window, pitch in (
        annulus,
        ("2-D circle hypersurface", shape_circle(), square, "1/10"),
        ("2-D Z polyline", zigzag, BoxCell.make([-1] * 2, [3] * 2), "1/10"),
        sphere,
    ):
        t = _time(lambda: cubical_model(shape, window, pitch))
        print(f"{f'cubical_model {label}, pitch {pitch}':50s}{t * 1e3:>10.2f}ms")
    for label, shape, window, pitch in (sphere, annulus):
        model = cubical_model(shape, window, pitch)
        t = _time(lambda: model_graph(model))
        label = f"model_graph {label}, pitch {pitch}"
        print(f"{label:50s}{t * 1e3:>10.2f}ms{len(model.cubes):>10d} cubes")
    # the growth loop alone, on the grown inputs of the classify rows below
    for label, g, order in (
        ("2-sphere", minimal_sphere(2), 120),
        ("3-sphere", minimal_sphere(3), 60),
        ("torus16", get("torus16").graph, 100),
    ):
        t = _time(lambda: _grown(g, order, 12))
        print(f"{f'grow {label} to {order} vertices':50s}{t * 1e3:>10.2f}ms")
    # the torus is a negative for the sphere clause: every G - v fails; every
    # G - v of the minimal 20-sphere is a cone, so its deletion clause runs no
    # pass and the time is the rim walk
    for label, g, kind in (
        ("2-sphere grown to 120 vertices", _grown(minimal_sphere(2), 120, 12), "Sphere"),
        ("3-sphere grown to 40 vertices", _grown(minimal_sphere(3), 40, 12), "Sphere"),
        ("3-sphere grown to 60 vertices", _grown(minimal_sphere(3), 60, 12), "Sphere"),
        ("torus16 grown to 100 vertices", _grown(get("torus16").graph, 100, 12), "Manifold"),
        ("minimal 20-sphere (42 vertices)", minimal_sphere(20), "Sphere"),
    ):

        def cold_classify():
            kernels.clear_caches()
            digitopo.classify.clear_caches()
            assert classify(g).kind == kind

        t, tests = _time(cold_classify), _calls(cold_classify, "_simple")
        reindexed = _calls(cold_classify, "subgraph_rows")
        print(f"{f'classify {label}':50s}{t * 1e3:>10.2f}ms{tests:>10d} rim tests{reindexed:>10d} reindexes")
    for r, w in (("3/2", "2"), ("2", "5/2")):
        shell = model_graph(cubical_model(shape_sphere(r), BoxCell.make([f"-{w}"] * 3, [w] * 3), "1/4"))

        def cold_reduce():
            kernels.clear_caches()
            return reduce(shell)

        t, tests = _time(cold_reduce), _calls(cold_reduce, "_simple")
        label = f"reduce r={r} shell ({shell.order} vertices)"
        print(f"{label:50s}{t * 1e3:>10.2f}ms{tests:>10d} rim tests")
        residue, _ = reduce(shell)
        t = _time(lambda: homology(residue))
        label = f"homology r={r} shell residue ({residue.order} vertices)"
        print(f"{label:50s}{t * 1e3:>10.2f}ms")
    g = random_graph(random.Random(2), 20, 0.5)
    t, matrix = _time(lambda: homology(g)), _largest_matrix(lambda: homology(g))
    print(f"{'homology random 20-vertex graph (p 1/2, seed 2)':50s}{t * 1e3:>10.2f}ms")
    t = _time(lambda: _smith.smith_diagonal(matrix))
    rows = len({i for col in matrix for i in col})
    label = f"smith_diagonal its {rows}x{len(matrix)} matrix"
    print(f"{label:50s}{t * 1e3:>10.2f}ms")
    sphere12 = minimal_sphere(12)

    def cold_reduce_sphere():
        kernels.clear_caches()
        return reduce(sphere12)

    t = _time(cold_reduce_sphere)
    tracemalloc.start()
    cold_reduce_sphere()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    label = "cold reduce minimal 12-sphere (26 vertices)"
    print(f"{label:50s}{t * 1e3:>10.2f}ms{peak / 2**20:>10.3f} MiB tracemalloc peak")
    hat = dunce_hat()
    t = _time(lambda: _pure._acyclic(hat._rows, (1 << hat.order) - 1))
    print(f"{'tier 2 (_acyclic) on the 49-vertex dunce hat':50s}{t * 1e3:>10.2f}ms")
    for label, g in (
        ("49-vertex dunce hat", hat),
        ("dunce hat with 4 pendants", pendant_dunce_hat(4, 12)),
        ("dunce hat with 6 pendants", pendant_dunce_hat(6, 8)),
    ):

        def cold_decide():
            kernels.clear_caches()
            return kernels.decide(g._rows, (1 << g.order) - 1)

        t, tier = _time(cold_decide), cold_decide()[1]
        nodes = _calls(cold_decide, "_greedy_order")
        asked = _calls(cold_decide, "contractible_on")
        forms = _calls(cold_decide, "_canon_dense")
        print(
            f"{f'cold decide on the {label}':50s}{t * 1e3:>10.2f}ms"
            f"{'tier':>10s} {tier}{nodes:>10d} search nodes{asked:>10d} contractible_on"
            f"{forms:>10d} forms computed"
        )
    # the heaviest `certify` equivalence kind: torus16 against a seeded
    # 17-vertex copy; the search canonicalizes every residue it reaches
    torus = get("torus16").graph
    grown = _grown(torus, 17, 12)

    def cold_equivalent():
        kernels.clear_caches()
        assert homotopy_equivalent(torus, grown).status == "Equivalent"

    t = _time(cold_equivalent)
    asked, forms = _calls(cold_equivalent, "canon_bytes"), _calls(cold_equivalent, "_canon_dense")
    tests = _calls(cold_equivalent, "_simple")
    print(
        f"{'cold homotopy_equivalent torus16 vs grown to 17':50s}{t * 1e3:>10.2f}ms"
        f"{asked:>10d} forms asked{forms:>10d} forms computed{tests:>10d} rim tests"
    )
    path = path_graph(160)

    def cold_trace():
        kernels.clear_caches()
        assert is_contractible(path, return_trace=True)[0]

    t, passes = _time(cold_trace), _calls(cold_trace, "_greedy")
    label = "cold traced is_contractible path (160 vertices)"
    print(f"{label:50s}{t * 1e3:>10.2f}ms{passes:>10d} greedy passes")
    # warm: every call hits a memo table, so the time is the key alone
    sphere2 = _grown(minimal_sphere(2), 120, 12)
    for label, call in (
        ("warm canonical_key 2-sphere grown to 120", lambda: canonical_key(sphere2)),
        ("warm is_contractible path (160 vertices)", lambda: is_contractible(path)),
    ):
        call()
        t = _time(lambda: [call() for _ in range(1000)]) / 1000
        print(f"{f'{label}, per call':50s}{t * 1e3:>10.4f}ms")
    for name, call in (
        ("validate_lcl", validate_lcl),
        ("nerve", nerve),
        ("boundary_trace_cover", lambda c: boundary_trace_cover(c, 0)),
        ("cover task", lambda c: (validate_lcl(c), nerve(c), boundary_trace_cover(c, 0))),
    ):
        t = _time(lambda: call(brick_wall_torus_cover()))
        print(f"{f'{name} brick-wall torus (16 cells)':50s}{t * 1e3:>10.2f}ms")
    # invalid, so its 3- and 4-cell cliques are intersected outside the
    # pairwise pass, and a task traces no cell, as in `certify`
    for name, call in (
        ("validate_lcl", validate_lcl),
        ("cover task", lambda c: (validate_lcl(c), nerve(c))),
    ):
        t = _time(lambda: call(aligned_grid_torus_cover()))
        print(f"{f'{name} aligned-grid torus (16 cells)':50s}{t * 1e3:>10.2f}ms")


def macro():
    import digitopo
    from conftest import brick_wall_torus_cover
    from digitopo.classify import classify, minimal_sphere
    from digitopo.covers import BoxCell, validate_lcl
    from digitopo.digitizer import digitize_reduce, shape_sphere

    g = _grown(minimal_sphere(2), 44, 12)
    cover = brick_wall_torus_cover()
    kernels.clear_caches()
    digitopo.classify.clear_caches()
    t = time.perf_counter()
    assert classify(g).kind == "Sphere"
    rep = digitize_reduce(shape_sphere(), BoxCell.make([-2] * 3, [2] * 3), "1/3")
    assert rep.euler == 2
    assert validate_lcl(cover).verdict
    print(
        f"\nmacro workload, cold caches: {(time.perf_counter() - t) * 1e3:.2f}ms "
        f"(classify of a 2-sphere grown to 44 vertices, 3-D sphere digitization "
        f"at pitch 1/3, brick-wall cover validation)"
    )


if __name__ == "__main__":
    micro()
    layers()
    macro()
