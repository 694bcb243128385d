"""Workload `digitize`: shape -> cubical model -> reduce -> invariants.

Why this workload: it is the only one that runs the digitizer (exact
`Fraction` evaluation of the shape expression at every sample point), and
`homotopy.reduce` dominates it. In 2-D the reduce time goes to
`induced_subgraph` label churn; in 3-D it goes to rim-sized contractibility
tests and their canonical forms, which is where `latency_p90_s` lands.

Each task is one `digitopo digitize shape.json --pitch p` question: parse
the shape object, digitize it in its window, reduce the model graph and
read the invariants.

Every shape is drawn from a finite parameter space (`all_specs`), so each
one has a digest recorded in `digests.json`: the residue's canonical key,
the trace length and the CLI report. The oracle checks those digests and
the shape's topology, which mathematics fixes: radii and widths are at
least two pitches, so the sampling contract of `cubical_model` holds.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from deck import Deck

DIGESTS = Path(__file__).with_name("digests.json")

# 2-D shapes: sizes are fixed in pitch units, so every pitch yields models of
# comparable size; the pitch still changes every constant the digitizer
# evaluates with.
PITCHES_2D = ("1/4", "1/5", "1/6", "1/8", "1/10")
CIRCLE_RADII = (F(5, 2), F(11, 4), F(3))  # in pitches; models of similar size
ANNULI = ((F(2), F(4)), (F(2), F(9, 2)), (F(5, 2), F(9, 2)), (F(5, 2), F(5)))
# polylines in pitch units; closed ones end where they start
POLYLINES = {
    "L": ((0, 0), (6, 0), (6, 6)),
    "Z": ((0, 0), (6, 0), (0, 6), (6, 6)),
    "U": ((0, 6), (0, 0), (6, 0), (6, 6)),
    "square": ((0, 0), (6, 0), (6, 6), (0, 6), (0, 0)),
    "triangle": ((0, 0), (8, 0), (0, 8), (0, 0)),
}
CLOSED = {"square", "triangle"}
# centre offsets: multiples of a quarter pitch on each axis
OFFSETS_2D = tuple((i, j) for i in range(4) for j in range(4))

# 3-D sphere shells: ((pitch, radius, centre in half pitches), window
# half-width). Centre, radius and window decide the cost of the exact rim
# search, which ranges from 0.8 s to well over 8 s per shell. The pool keeps
# six shells of both pitches and all three half-widths that take 1.5-1.8 s
# each: p90 lands inside the shells, so their costs have to agree for p90 to
# hold still from seed to seed. README.md names the shells left out.
SHELLS = (
    (("1/2", F(5, 4), (0, 0, 0)), F(7, 4)),
    (("1/2", F(5, 4), (0, 0, 0)), F(2)),
    (("1/2", F(5, 4), (1, 1, 1)), F(2)),
    (("2/5", F(9, 10), (1, 1, 1)), F(7, 4)),
    (("2/5", F(9, 10), (1, 1, 1)), F(2)),
    (("2/5", F(1), (0, 0, 0)), F(3, 2)),
)

# One round, shuffled: six 2-D shapes and one 3-D shell. Sorted by cost the
# slots run open and closed polylines, circles, disk, annulus, shell, so the
# median lands inside the two circles and p90 inside the shells, never on the
# boundary between two groups.
ROUND = ("open", "closed", "circle", "circle", "disk", "annulus", "shell")

EXPECTED = {  # (euler, betti_q) by topology
    "circle": (0, (1, 1)),
    "point": (1, (1,)),
    "sphere": (2, (1, 0, 1)),
}


def _sq_dist(centre, names):
    return ["+"] + [["square", ["-", v, str(c)]] for v, c in zip(names, centre)]


def _spec_2d(kind: str, pitch: str, param, offset) -> dict:
    p = F(pitch)
    c = (offset[0] * p / 4, offset[1] * p / 4)
    rho = _sq_dist(c, ("x", "y"))
    if kind in ("circle", "disk"):
        r = param * p
        shape = {
            "kind": "hypersurface" if kind == "circle" else "region",
            "expr": ["-", rho, str(r * r)],
        }
        extent, topo = r, ("circle" if kind == "circle" else "point")
        tag = f"{kind} r={param}"
    elif kind == "annulus":
        a, b = param[0] * p, param[1] * p
        shape = {"kind": "region", "expr": ["max", ["-", str(a * a), rho], ["-", rho, str(b * b)]]}
        extent, topo = b, "circle"
        tag = f"annulus r={param[0]}..{param[1]}"
    else:
        pts = [(x * p + c[0], y * p + c[1]) for x, y in POLYLINES[param]]
        shape = {"kind": "curve", "points": [[str(x), str(y)] for x, y in pts]}
        extent = max(max(abs(x), abs(y)) for x, y in pts)
        topo = "circle" if param in CLOSED else "point"
        tag = f"polyline {param}"
    hw = extent + 2 * p
    return {
        "id": f"{tag} p={pitch} c={offset[0]},{offset[1]}/4",
        "dim": 2,
        "shape": shape,
        "window": [[str(-hw)] * 2, [str(hw)] * 2],
        "pitch": pitch,
        "topology": topo,
    }


def _spec_3d(shell, hw: F) -> dict:
    pitch, r, half = shell
    p = F(pitch)
    c = tuple(h * p / 2 for h in half)
    shape = {"kind": "hypersurface", "expr": ["-", _sq_dist(c, ("x", "y", "z")), str(r * r)]}
    return {
        "id": f"shell r={r} p={pitch} c={','.join(map(str, half))}/2 hw={hw}",
        "dim": 3,
        "shape": shape,
        "window": [[str(-hw)] * 3, [str(hw)] * 3],
        "pitch": pitch,
        "topology": "sphere",
    }


def _fits(shell, hw: F) -> bool:
    """The window holds the shell with a pitch to spare, so no cube is cut."""
    pitch, r, half = shell
    p = F(pitch)
    return max(half) * p / 2 + r + p <= hw


def _strata() -> dict[str, list[list]]:
    """Per round slot, the inputs grouped by what sets their cost: the size
    or template of a 2-D shape, or the shell and window of a 3-D one."""
    po = [(p, o) for p in PITCHES_2D for o in OFFSETS_2D]
    return {
        "circle": [[("circle", p, r, o) for p, o in po] for r in CIRCLE_RADII],
        "disk": [[("disk", p, r, o) for p, o in po] for r in CIRCLE_RADII],
        "annulus": [[("annulus", p, a, o) for p, o in po] for a in ANNULI],
        "open": [[("polyline", p, n, o) for p, o in po] for n in POLYLINES if n not in CLOSED],
        "closed": [[("polyline", p, n, o) for p, o in po] for n in sorted(CLOSED)],
        "shell": [[(s, hw)] for s, hw in SHELLS if _fits(s, hw)],
    }


def _build(slot: str, choice) -> dict:
    if slot == "shell":
        return _spec_3d(*choice)
    return _spec_2d(*choice)


def all_specs() -> list[dict]:
    """Every input the generator can produce (the digest table's domain)."""
    return [_build(slot, c) for slot, ss in _strata().items() for s in ss for c in s]


def stream(seed: int, digests: dict):
    """Endless task inputs, in shuffled rounds of `ROUND`.

    Each slot deals its strata from a deck, so every run holds the same mix
    of sizes and shells whatever the seed.
    """
    rng = random.Random(seed)
    decks = {slot: Deck(rng, strata) for slot, strata in _strata().items()}
    while True:
        slots = list(ROUND)
        rng.shuffle(slots)
        for slot in slots:
            yield _build(slot, rng.choice(decks[slot].draw()))


def prepare(dt) -> dict:
    """The recorded digests, keyed by spec id."""
    return json.loads(DIGESTS.read_text())


def run(dt, spec: dict, digests: dict):
    """The user's question: digitize, reduce, and read the invariants."""
    shape = dt.digitizer.ShapeSpec.from_obj(spec["shape"])
    window = dt.covers.BoxCell.make(*spec["window"])
    return dt.digitizer.digitize_reduce(shape, window, spec["pitch"])


def digest(dt, report) -> list:
    """[residue canonical key, trace length, CLI report] as recorded."""
    key = dt.graph.canonical_key(report.residue)
    cli = json.dumps(report.to_obj(), sort_keys=True, separators=(",", ":"))
    return [
        hashlib.sha256(key).hexdigest()[:32],
        len(report.trace),
        hashlib.sha256(cli.encode()).hexdigest()[:32],
    ]


def check(dt, spec: dict, report, digests: dict) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    euler, betti = EXPECTED[spec["topology"]]
    got = tuple(report.profile.betti_q)
    while got and got[-1] == 0:
        got = got[:-1]
    if report.euler != euler or got != betti:
        return f"topology: euler {report.euler}, betti_q {got}; want {euler}, {betti}"
    if spec["topology"] == "point" and report.residue.order != 1:
        return f"contractible shape left a {report.residue.order}-vertex residue"
    want = digests.get(spec["id"])
    if want is None:
        return "no recorded digest"
    if digest(dt, report) != want:
        return "digest differs from the recorded one"
    return None
