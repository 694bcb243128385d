"""Workload `recognize`: `classify.classify` on grown spheres and catalog surfaces.

Why this workload: the sphere clause "every one-point deletion is
contractible" hands whole (n-1)-vertex graphs to the exact search, and
`surface_dimension` and the sphere memo canonicalize every intermediate
graph. This is the non-rim-sized path of the contractibility kernels; the
workload uses no digitizer and almost no homology.

Each task is one `digitopo classify graph.json` question. Spheres are grown
inside the task from the minimal sphere by seeded edge-to-point
replacements (`transform.r_transform`), which preserve the sphere type, so
the expected answer is `Sphere` at the start dimension. About a fifth of
the tasks are the catalog surfaces `torus16`, `klein16` and `rp11`, which
must come back as `Manifold` of dimension 2. They stay at catalog size:
grown negatives get expensive fast (torus16 grown to 20 vertices takes
about a minute).
"""

from __future__ import annotations

import random

from deck import Deck

# one round of ten tasks: (dimension, vertex-count band) for grown spheres,
# plus two catalog surfaces; each band deals its sizes from a deck, since
# recognition time grows steeply with the size. p90 lands in the top
# 2-sphere band, which is kept narrow so that p90 holds still from seed to
# seed.
SPHERE_BANDS = (
    (2, 10, 19),
    (2, 20, 29),
    (2, 30, 39),
    (2, 40, 44),
    (3, 10, 13),
    (3, 14, 17),
    (3, 18, 20),
    (3, 21, 24),
)
CATALOG = ("torus16", "klein16", "rp11")
CATALOG_PER_ROUND = 2


def prepare(dt) -> dict:
    """Catalog graphs as plain vertex and edge lists (inputs, not Graphs)."""
    out = {}
    for name in CATALOG:
        g = dt.catalog.get(name).graph
        out[name] = (list(g.vertices), [list(e) for e in g.edges()])
    return out


def stream(seed: int, catalog: dict):
    """Endless task inputs, in shuffled rounds of one sphere per band plus
    two catalog surfaces (taken in turn)."""
    rng = random.Random(seed)
    sizes = [(dim, Deck(rng, range(lo, hi + 1))) for dim, lo, hi in SPHERE_BANDS]
    k = rng.randrange(len(CATALOG))
    while True:
        rnd = []
        for dim, deck in sizes:
            rnd.append({"kind": "grown", "dim": dim, "order": deck.draw(), "seed": rng.getrandbits(32)})
        for _ in range(CATALOG_PER_ROUND):
            name = CATALOG[k % len(CATALOG)]
            k += 1
            vs, es = catalog[name]
            rnd.append({"kind": "catalog", "name": name, "vertices": vs, "edges": es})
        rng.shuffle(rnd)
        yield from rnd


def _grow(dt, dim: int, order: int, seed: int):
    rng = random.Random(seed)
    g = dt.classify.minimal_sphere(dim)
    while g.order < order:
        u, v = rng.choice(g.edges())
        g, _ = dt.transform.r_transform(g, u, v, dt.transform.fresh_label(g))
    return g


def run(dt, spec: dict, catalog: dict):
    if spec["kind"] == "grown":
        g = _grow(dt, spec["dim"], spec["order"], spec["seed"])
    else:
        g = dt.graph.build_graph(spec["vertices"], [tuple(e) for e in spec["edges"]])
    return g.order, dt.classify.classify(g)


def check(dt, spec: dict, answer, catalog: dict) -> str | None:
    order, verdict = answer
    if spec["kind"] == "grown":
        want = ("Sphere", spec["dim"], spec["order"])
    else:
        want = ("Manifold", 2, len(spec["vertices"]))
    got = (verdict.kind, verdict.dimension, order)
    return None if got == want else f"got {got}, want {want}"
