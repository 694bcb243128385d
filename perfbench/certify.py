"""Workload `certify`: many short mixed queries with exact, known answers.

Why this workload: it is the only one where `covers`, `_smith`, `catalog`
and graph construction on the write path do work. Canonical forms are taken
on whole graphs inside a search (`homotopy_equivalent`), not on rims, so a
policy that helps `digitize` (say, memoizing only rim-sized graphs) shows
its cost here.

Query kinds, one round of twelve in shuffled order:

- validate (3): `catalog.validate` on a freshly built catalog entry;
- cover (2): `validate_lcl`, `nerve` and, on valid covers, one
  `boundary_trace_cover`, for the brick-wall torus, the aligned grid
  (invalid), the cube faces and seeded box covers;
- write (2): seeded random contractible transformations, accepted or
  rejected by `apply_transformation`, replayed by `apply_trace`, inverted by
  `invert_trace` and replayed back, with Euler characteristic and homology;
- equivalence (3): `homotopy_equivalent` on small pairs;
- homology (2): `homology` with torsion on rp11, klein16 and joins.

Left out for run length: octahedron against icosahedron (26 s) and the join
of rp11 with itself (3 s).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from deck import Deck

ROUND = ("validate",) * 3 + ("cover",) * 2 + ("write",) * 2 + ("equiv",) * 3 + ("homology",) * 2

WRITE_BASES = ("torus16", "klein16", "rp11", "moebius12", "icosahedron", "sphere_min_2")
# (name, graph recipe, expected betti_q, betti_z2, torsion); joins follow from
# suspension: joining with a point pair shifts reduced homology up by one
HOMOLOGY = (
    ("rp11", ("rp11",), (1, 0, 0), (1, 1, 1), ((), (2,), ())),
    ("klein16", ("klein16",), (1, 1, 0), (1, 2, 1), ((), (2,), ())),
    ("rp11*S0", ("rp11", "sphere_min_0"), (1, 0, 0, 0), (1, 0, 1, 1), ((), (), (2,), ())),
    ("klein16*S0", ("klein16", "sphere_min_0"), (1, 0, 1, 0), (1, 0, 2, 1), ((), (), (2,), ())),
    (
        "rp11*S1",
        ("rp11", "sphere_min_1"),
        (1, 0, 0, 0, 0),
        (1, 0, 0, 1, 1),
        ((), (), (), (2,), ()),
    ),
)


def prepare(dt) -> dict:
    """Every catalog entry as plain data: labels, edges and expectations."""
    out = {}
    for name in dt.catalog.names():
        e = dt.catalog.get(name)
        out[name] = {
            "vertices": list(e.graph.vertices),
            "edges": [list(x) for x in e.graph.edges()],
            "expected": e.expected,
            "construction": e.construction,
            "boundary": e.boundary,
        }
    return out


# ---------------------------------------------------------------------------
# covers (JSON objects, as `digitopo cover validate` reads them)


def _box(lo, hi) -> dict:
    return {"lo": [str(x) for x in lo], "hi": [str(x) for x in hi]}


def _cover(cells, periods, n) -> dict:
    return {"ambient": len(periods), "n": n, "domain": {"periodic": periods}, "cells": cells}


def brick_wall() -> dict:
    """Sixteen unit bricks tiling the flat 4-torus, odd rows offset by 1/2."""
    cells = []
    for r in range(4):
        off = F(1, 2) if r % 2 else F(0)
        cells += [_box([c + off, r], [c + 1 + off, r + 1]) for c in range(4)]
    return _cover(cells, [4, 4], 2)


def aligned_grid() -> dict:
    """Sixteen aligned unit squares on the flat 4-torus: four meet at a corner."""
    return _cover([_box([x, y], [x + 1, y + 1]) for x in range(4) for y in range(4)], [4, 4], 2)


def cube_faces() -> dict:
    cells = []
    for ax in range(3):
        for side in (0, 1):
            lo, hi = [0, 0, 0], [1, 1, 1]
            lo[ax] = hi[ax] = side
            cells.append(_box(lo, hi))
    return _cover(cells, [None, None, None], 2)


def box_cover(rng: random.Random) -> dict:
    """A valid cover of one box: a 1-d partition or a 2-d brick wall.

    Brick rows alternate integer and half-integer cuts, so cuts of adjacent
    rows never align and no four cells share a corner.
    """
    if rng.random() < 0.5:
        m = rng.randint(2, 6)
        cuts = sorted(rng.sample([F(k, 2) for k in range(1, 2 * m)], rng.randint(1, m)))
        pts = [F(0)] + cuts + [F(m)]
        return _cover([_box([a], [b]) for a, b in zip(pts, pts[1:])], [None], 1)
    w, rows = rng.randint(2, 4), rng.randint(2, 3)
    cells = []
    for r in range(rows):
        if r % 2 == 0:
            pool = [F(k) for k in range(1, w)]
        else:
            pool = [F(2 * k + 1, 2) for k in range(w)]
        cuts = sorted(rng.sample(pool, rng.randint(0, len(pool))))
        pts = [F(0)] + cuts + [F(w)]
        cells += [_box([a, r], [b, r + 1]) for a, b in zip(pts, pts[1:])]
    return _cover(cells, [None, None], 2)


# (valid, nerve vertices, nerve euler, nerve betti_q or None)
COVER_FACTS = {
    "brick": (True, 16, 0, (1, 2, 1)),
    "aligned": (False, 16, None, None),
    "cube": (True, 6, 2, (1, 0, 1)),
}


# ---------------------------------------------------------------------------
# generation


def _gen(rng: random.Random, kind: str, decks: dict) -> dict:
    what = decks[kind].draw()
    if kind == "validate":
        return {"kind": kind, "name": what}
    if kind == "cover":
        fixed = {"brick": brick_wall, "aligned": aligned_grid, "cube": cube_faces}
        obj = box_cover(rng) if what == "boxes" else fixed[what]()
        return {"kind": kind, "which": what, "cover": obj, "cell": rng.randrange(len(obj["cells"]))}
    if kind == "write":
        return {"kind": kind, "base": what, "steps": decks["steps"].draw(), "seed": rng.getrandbits(32)}
    if kind == "equiv":
        spec = {"kind": kind, "pair": what, "seed": rng.getrandbits(32)}
        if what in ("cycles", "octahedron", "negative"):
            spec["sizes"] = list(decks[what].draw())
        return spec
    return {"kind": kind, "case": what}


def stream(seed: int, catalog: dict):
    """Endless task inputs, in shuffled rounds of the twelve query kinds.

    Sizes (cycle lengths, grown octahedra, trace lengths) are dealt from
    decks too: their cost spans two orders of magnitude, and drawn
    independently they would move the run's median with the seed."""
    rng = random.Random(seed)
    cycles = range(4, 10)
    decks = {
        "validate": Deck(rng, sorted(catalog)),
        "cover": Deck(rng, ("brick", "aligned", "cube", "boxes", "boxes")),
        "write": Deck(rng, WRITE_BASES),
        "equiv": Deck(rng, ("cycles", "cycles", "octahedron", "octahedron", "torus", "negative")),
        "homology": Deck(rng, range(len(HOMOLOGY))),
        "steps": Deck(rng, range(8, 15)),
        "cycles": Deck(rng, [(a, b) for a in cycles for b in cycles]),
        "octahedron": Deck(rng, [(6, n) for n in range(7, 11)]),
        "negative": Deck(rng, [(n, 6) for n in cycles]),
    }
    while True:
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for k in kinds:
            yield _gen(rng, k, decks)


# ---------------------------------------------------------------------------
# tasks


def _graph(dt, data: dict):
    return dt.graph.build_graph(data["vertices"], [tuple(e) for e in data["edges"]])


def _cycle(dt, k: int, prefix: str):
    vs = [f"{prefix}{i}" for i in range(k)]
    return dt.graph.build_graph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def _grown(dt, g, order: int, rng: random.Random):
    while g.order < order:
        u, v = rng.choice(g.edges())
        g, _ = dt.transform.r_transform(g, u, v, dt.transform.fresh_label(g))
    return g


def _random_trace(dt, g, want: int, rng: random.Random):
    """Propose random transformations; keep those the program accepts."""
    h = dt.homotopy
    steps = []
    fresh = 0
    for _ in range(want * 40):
        if len(steps) == want:
            break
        kind = rng.choice(("del-point", "del-edge", "att-edge", "att-point"))
        if kind == "del-point" and g.order > 1:
            step = h.DeletePoint(rng.choice(g.vertices))
        elif kind == "del-edge" and g.size:
            step = h.DeleteEdge(*rng.choice(g.edges()))
        elif kind == "att-edge" and g.order >= 2:
            step = h.AttachEdge(*rng.sample(g.vertices, 2))
        elif kind == "att-point":
            fresh += 1
            rim = rng.sample(g.vertices, rng.randint(1, min(4, g.order)))
            step = h.AttachPoint(f"n{fresh}", frozenset(rim))
        else:
            continue
        try:
            g = h.apply_transformation(g, step)
        except h.TransformationError:
            continue
        steps.append(step)
    return h.HomotopyTrace(tuple(steps))


def run(dt, spec: dict, catalog: dict):
    kind = spec["kind"]
    if kind == "validate":
        data = catalog[spec["name"]]
        entry = dt.catalog.CatalogEntry(
            spec["name"], _graph(dt, data), data["expected"], data["construction"], data["boundary"]
        )
        return dt.catalog.validate(entry)
    if kind == "cover":
        cover = dt.covers.BoxCover.from_obj(spec["cover"])
        report = dt.covers.validate_lcl(cover)
        g = dt.covers.nerve(cover)
        trace = dt.covers.boundary_trace_cover(cover, spec["cell"])[1] if report.verdict else None
        return report.verdict, g, trace
    if kind == "write":
        g = _graph(dt, catalog[spec["base"]])
        trace = _random_trace(dt, g, spec["steps"], random.Random(spec["seed"]))
        h = dt.homotopy.apply_trace(g, trace)
        back = dt.homotopy.apply_trace(h, dt.homotopy.invert_trace(g, trace))
        inv = dt.invariants
        return g, back, len(trace), inv.euler_characteristic(h), inv.homology(h)
    if kind == "equiv":
        g, h = _pair(dt, spec, catalog)
        return g, h, dt.homotopy.homotopy_equivalent(g, h)
    name, recipe, *_ = HOMOLOGY[spec["case"]]
    g = _graph(dt, catalog[recipe[0]])
    for other in recipe[1:]:
        g = dt.graph.join(g, _graph(dt, catalog[other]))
    return dt.invariants.euler_characteristic(g), dt.invariants.homology(g)


def _pair(dt, spec: dict, catalog: dict):
    rng = random.Random(spec["seed"])
    pair = spec["pair"]
    if pair == "cycles":
        a, b = spec["sizes"]
        return _cycle(dt, a, "c"), _cycle(dt, b, "d")
    if pair == "octahedron":
        oct6 = _graph(dt, catalog["sphere_min_2"])
        return oct6, _grown(dt, oct6, spec["sizes"][1], rng)
    if pair == "torus":
        t = _graph(dt, catalog["torus16"])
        return t, _grown(dt, t, 17, rng)
    return _cycle(dt, spec["sizes"][0], "c"), _graph(dt, catalog["sphere_min_2"])


# ---------------------------------------------------------------------------
# oracle


def _trim(b: tuple) -> tuple:
    while b and b[-1] == 0:
        b = b[:-1]
    return b


def _betti(profile) -> tuple:
    return _trim(tuple(profile.betti_q))


def check(dt, spec: dict, answer, catalog: dict) -> str | None:
    kind = spec["kind"]
    inv = dt.invariants
    if kind == "validate":
        return None if answer["ok"] else f"catalog checks failed: {answer['failures']}"
    if kind == "cover":
        valid, g, trace = answer
        if spec["which"] == "boxes":
            # a valid cover of one box: its nerve is contractible
            want_valid, order, euler, betti = True, len(spec["cover"]["cells"]), 1, (1,)
        else:
            want_valid, order, euler, betti = COVER_FACTS[spec["which"]]
        if valid != want_valid:
            return f"LCL verdict {valid}, want {want_valid}"
        if g.order != order:
            return f"nerve has {g.order} vertices, want {order}"
        if euler is not None and inv.euler_characteristic(g) != euler:
            return "nerve Euler characteristic"
        if betti is not None and _betti(inv.homology(g)) != betti:
            return "nerve homology"
        if valid and trace is not True:
            return "boundary trace nerve is not the induced nerve"
        return None
    if kind == "write":
        g, back, steps, euler, profile = answer
        exp = catalog[spec["base"]]["expected"]
        if steps == 0:
            return "no transformation was accepted"
        if back != g:
            return "inverse trace did not restore the input"
        if euler != exp["euler"]:
            return f"Euler characteristic {euler}, want {exp['euler']}"
        if _betti(profile) != _trim(tuple(exp["betti_q"])):
            return f"betti_q {profile.betti_q}, want {exp['betti_q']}"
        return None
    if kind == "equiv":
        g, h, verdict = answer
        want = "Distinguished" if spec["pair"] == "negative" else "Equivalent"
        if verdict.status != want:
            return f"{verdict.status}, want {want}"
        if want == "Equivalent":
            hm = dt.homotopy
            ends = hm.apply_trace(g, verdict.traces[0]), hm.apply_trace(h, verdict.traces[1])
            if dt.graph.canonical_key(ends[0]) != dt.graph.canonical_key(ends[1]):
                return "witness traces do not meet"
        return None
    _, _, betti_q, betti_z2, torsion = HOMOLOGY[spec["case"]]
    euler, profile = answer
    got = (tuple(profile.betti_q), tuple(profile.betti_z2), tuple(profile.torsion))
    if got != (betti_q, betti_z2, torsion):
        return f"homology {got}, want {(betti_q, betti_z2, torsion)}"
    if euler != sum(b if k % 2 == 0 else -b for k, b in enumerate(betti_q)):
        return f"Euler characteristic {euler} disagrees with betti_q"
    return None

