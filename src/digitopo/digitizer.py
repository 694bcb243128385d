"""Cubical models of continuous shapes and their intersection graphs.

A shape is digitized by collecting the lattice cubes at pitch L that meet
it, judged by a deterministic corner-and-center sample grid: 3 positions
per axis, at multiples of the half pitch L/2. Neighbouring cubes share
samples, so regions and hypersurfaces are evaluated once per point of the
shared half-pitch lattice. `_compile` turns the expression into integer
arithmetic over a common denominator and only the sign of each point is
kept, so the verdicts are exact and use no floats. The model graph joins
cubes whose closed boxes intersect, i.e. cubes within Chebyshev distance
one. Reducing the model graph and reading its invariants reproduces the
experiment chain shape -> cubical model -> intersection graph.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from .covers import BoxCell, CoverError, _fmt, _frac
from .graph import Graph
from .homotopy import HomotopyTrace, reduce as reduce_graph
from .invariants import HomologyProfile, _euler_and_homology


class ShapeError(ValueError):
    """Malformed shape specification or expression."""


# ---------------------------------------------------------------------------
# expressions
#
# Prefix trees over the coordinates with rational constants and the
# operations +, -, *, abs, min, max, square. Total on rational inputs.

_VAR_NAMES = {"x": 0, "y": 1, "z": 2, "x0": 0, "x1": 1, "x2": 2}

# Operations nest at most this deep, so parsing, `eval_expr` and the
# evaluator from `_compile` all recurse far below the interpreter's limit.
MAX_EXPR_DEPTH = 100

# `_compile` evaluates an expression at this integer degree at most. A
# variable or a constant has degree 1, a `*` the sum of its operands'
# degrees and `square` twice its operand's, so each nested `square` doubles
# it and lattice values grow to about that many times a coordinate's bits.
# The bundled shapes have degree 2.
MAX_DEGREE = 64

# A window may hold at most this many cubes at the requested pitch; larger
# ones are refused before any lattice point is evaluated. The bundled inputs
# stay below 10,000.
MAX_CUBES = 100_000


def parse_expr(obj: Any):
    return _parse(obj, 0)


def _parse(obj: Any, depth: int):
    if isinstance(obj, str):
        if obj in _VAR_NAMES:
            return ("var", _VAR_NAMES[obj])
        if obj.isidentifier():
            raise ShapeError(f"unknown variable {obj!r}")
    if isinstance(obj, (str, int, float, Fraction)):
        return ("const", _rational(obj, "constant"))
    if isinstance(obj, (list, tuple)) and obj:
        if depth == MAX_EXPR_DEPTH:
            raise ShapeError(f"expression nested deeper than {MAX_EXPR_DEPTH} operations")
        op = obj[0]
        args = [_parse(a, depth + 1) for a in obj[1:]]
        if op in ("+", "*", "min", "max"):
            if len(args) < 2:
                raise ShapeError(f"{op} needs at least two operands")
            return (op, *args)
        if op == "-":
            if len(args) not in (1, 2):
                raise ShapeError("- takes one or two operands")
            return ("-", *args)
        if op in ("abs", "square"):
            if len(args) != 1:
                raise ShapeError(f"{op} takes one operand")
            return (op, args[0])
        raise ShapeError(f"unknown operation {op!r}")
    raise ShapeError(f"cannot parse expression {obj!r}")


def _rational(x: Any, what: str) -> Fraction:
    """``x`` as a rational; anything else (a boolean, NaN, an infinity, a
    malformed string) raises ShapeError naming it as ``what``."""
    try:
        return _frac(x)
    except CoverError:
        raise ShapeError(f"{what} {x!r} is not a valid rational") from None


def eval_expr(expr, point: Sequence[Fraction]) -> Fraction:
    op = expr[0]
    if op == "const":
        return expr[1]
    if op == "var":
        idx = expr[1]
        if idx >= len(point):
            raise ShapeError(f"expression uses axis {idx}, point has {len(point)}")
        return point[idx]
    args = [eval_expr(a, point) for a in expr[1:]]
    if op == "+":
        return sum(args, Fraction(0))
    if op == "*":
        out = Fraction(1)
        for a in args:
            out *= a
        return out
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if op == "abs":
        return abs(args[0])
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "square":
        return args[0] * args[0]
    raise ShapeError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class ShapeSpec:
    """A region (f <= 0), a hypersurface (f = 0) or a parametric polyline."""

    kind: str  # "region" | "hypersurface" | "curve"
    expr: Optional[tuple] = None
    points: Optional[tuple[tuple[Fraction, ...], ...]] = None

    @staticmethod
    def from_obj(obj: Any) -> "ShapeSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ShapeError("shape object needs a 'kind'")
        kind = obj["kind"]
        if kind in ("region", "hypersurface"):
            if "expr" not in obj:
                raise ShapeError(f"{kind} shape needs an 'expr'")
            return ShapeSpec(kind, expr=parse_expr(obj["expr"]))
        if kind == "curve":
            pts = obj.get("points")
            if not isinstance(pts, list) or not all(isinstance(p, list) for p in pts):
                raise ShapeError("curve 'points' must be an array of coordinate arrays")
            if len(pts) < 2:
                raise ShapeError("curve shape needs at least two points")
            points = tuple(tuple(_rational(x, "curve coordinate") for x in p) for p in pts)
            return ShapeSpec("curve", points=points)
        raise ShapeError(f"unknown shape kind {kind!r}")


# convenient shape builders used by the bundled suite and the docs


def shape_segment() -> ShapeSpec:
    return ShapeSpec("curve", points=((Fraction(0),), (Fraction(1),)))


def shape_circle(r: Any = 1) -> ShapeSpec:
    rr = _frac(r)
    return ShapeSpec(
        "hypersurface",
        expr=parse_expr(["-", ["+", ["square", "x"], ["square", "y"]], rr * rr]),
    )


def shape_disk(r: Any = 1) -> ShapeSpec:
    rr = _frac(r)
    return ShapeSpec(
        "region",
        expr=parse_expr(["-", ["+", ["square", "x"], ["square", "y"]], rr * rr]),
    )


def shape_annulus(r_in: Any = "1/2", r_out: Any = 1) -> ShapeSpec:
    a, b = _frac(r_in), _frac(r_out)
    rho = ["+", ["square", "x"], ["square", "y"]]
    return ShapeSpec(
        "region",
        expr=parse_expr(["max", ["-", a * a, rho], ["-", rho, b * b]]),
    )


def shape_sphere(r: Any = 1) -> ShapeSpec:
    rr = _frac(r)
    return ShapeSpec(
        "hypersurface",
        expr=parse_expr(
            ["-", ["+", ["square", "x"], ["square", "y"], ["square", "z"]], rr * rr]
        ),
    )


# ---------------------------------------------------------------------------
# cubical model


@dataclass(frozen=True)
class CubicalModel:
    """Lattice cubes at pitch L; cube c covers [L*c, L*(c+1)] per axis."""

    pitch: Fraction
    ambient: int
    cubes: frozenset[tuple[int, ...]]

    def to_obj(self) -> dict[str, Any]:
        return {
            "pitch": _fmt(self.pitch),
            "ambient": self.ambient,
            "cubes": sorted(list(c) for c in self.cubes),
        }


def cubical_model(shape: ShapeSpec, window: BoxCell, pitch: Any) -> CubicalModel:
    """Cubes inside the window that the membership rule judges to meet the shape.

    Cube c is judged by 3^p samples, on each axis the points k * L/2 with
    k in {2c, 2c+1, 2c+2}: its two faces and its midpoint. Regions include
    a cube when a sample satisfies f <= 0; hypersurfaces need an exact
    zero or both a negative and a positive sample; curves include every
    cube entered by the polyline sampled at steps of at most a quarter
    pitch; only the samples inside the window's cube range are visited, so
    a segment's length outside the window costs nothing. Sampling density
    is part of the contract: a shape
    feature smaller than the sample grid can be missed. A window of more
    than `MAX_CUBES` cubes raises ShapeError.

    Neighbouring cubes share samples, so a region or hypersurface is
    evaluated once at every point of the half-pitch lattice over the
    window's cube range, by `_compile` in exact integer arithmetic, and
    only the sign of each point is kept.
    """
    L = _frac(pitch)
    if L <= 0:
        raise ShapeError("pitch must be positive")
    p = window.ambient
    if p > 3:
        raise ShapeError("ambient dimension is capped at 3")
    ranges = []
    for ax in range(p):
        lo = window.lo[ax] / L
        hi = window.hi[ax] / L
        first = int(lo if lo.denominator == 1 else lo.__floor__())
        last = int(hi.__ceil__()) - 1
        ranges.append(range(first, last + 1))
    count = math.prod(len(r) for r in ranges)
    if count > MAX_CUBES:
        raise ShapeError(
            f"window holds {count} cubes at pitch {_fmt(L)}, above the cap of {MAX_CUBES}"
        )

    cubes: set[tuple[int, ...]] = set()
    if shape.kind == "curve":
        # a sample outside the cube range's closed box touches no cube of it
        box = [(r.start * L, r.stop * L) for r in ranges]
        for a, b in zip(shape.points, shape.points[1:]):
            if len(a) != p or len(b) != p:
                raise ShapeError("curve points do not match the window dimension")
            l1 = sum(abs(bb - aa) for aa, bb in zip(a, b))
            steps = max(1, int((4 * l1 / L).__ceil__()))
            for s in _samples_in_box(a, b, steps, box):
                t = Fraction(s, steps)
                pt = tuple(aa + t * (bb - aa) for aa, bb in zip(a, b))
                for cand in itertools.product(
                    *[_cubes_touching(x, L) for x in pt]
                ):
                    cubes.add(cand)
        cubes = {c for c in cubes if all(c[ax] in ranges[ax] for ax in range(p))}
        return CubicalModel(L, p, frozenset(cubes))
    if not all(ranges):
        return CubicalModel(L, p, frozenset())

    # Lattice points are laid out flat, the last axis fastest.
    half = L / 2
    scale = math.lcm(half.denominator, *_const_denominators(shape.expr))
    f = _compile(shape.expr, scale, p)[0]
    step = half.numerator * (scale // half.denominator)
    axes = [[k * step for k in range(2 * r.start, 2 * r.stop + 1)] for r in ranges]
    signs = bytearray(
        _NEG if v < 0 else _POS if v else _ZERO
        for v in map(f, itertools.product(*axes))
    )
    strides = [1] * p
    for ax in range(p - 2, -1, -1):
        strides[ax] = strides[ax + 1] * len(axes[ax + 1])
    offsets = [
        sum(o * s for o, s in zip(off, strides))
        for off in itertools.product(range(3), repeat=p)
    ]
    hits = _REGION_HITS if shape.kind == "region" else _HYPERSURFACE_HITS
    corners = itertools.product(
        *[range(0, 2 * len(r) * s, 2 * s) for r, s in zip(ranges, strides)]
    )
    for cube, corner in zip(itertools.product(*ranges), corners):
        base = sum(corner)
        seen = 0
        for o in offsets:
            seen |= signs[base + o]
        if hits[seen]:
            cubes.add(cube)
    return CubicalModel(L, p, frozenset(cubes))


# Sign codes of lattice samples; a cube ORs the codes of its samples and
# looks the union up in the membership rule's table.
_NEG, _ZERO, _POS = 1, 2, 4
_REGION_HITS = tuple(bool(u & (_NEG | _ZERO)) for u in range(8))
_HYPERSURFACE_HITS = tuple(
    bool(u & _ZERO) or u & (_NEG | _POS) == _NEG | _POS for u in range(8)
)


def _const_denominators(expr) -> list[int]:
    if expr[0] == "const":
        return [expr[1].denominator]
    if expr[0] == "var":
        return []
    return [d for a in expr[1:] for d in _const_denominators(a)]


def _compile(expr, scale: int, ambient: int):
    """Compile an expression into an exact integer evaluator.

    Returns ``(fn, degree)``. Given a point whose coordinates are integers
    ``x_i * scale``, ``fn`` returns ``f(x) * scale**degree`` as an int, so
    its sign is the sign of f. ``scale`` must be a multiple of every
    constant's denominator. A degree above `MAX_DEGREE` raises ShapeError
    before any operand is rescaled.
    """
    op = expr[0]
    if op == "const":
        c = expr[1]
        n = c.numerator * (scale // c.denominator)
        return (lambda pt: n), 1
    if op == "var":
        idx = expr[1]
        if idx >= ambient:

            def missing(pt):
                raise ShapeError(f"expression uses axis {idx}, point has {ambient}")

            return missing, 1
        return operator.itemgetter(idx), 1
    parts = [_compile(a, scale, ambient) for a in expr[1:]]
    if op == "*":
        fns = [fn for fn, _ in parts]
        return (lambda pt: math.prod([fn(pt) for fn in fns])), _capped(sum(d for _, d in parts))
    if op == "square":
        (a, d), = parts
        return (lambda pt: a(pt) ** 2), _capped(2 * d)
    if op == "abs":
        (a, d), = parts
        return (lambda pt: abs(a(pt))), d
    if op == "-" and len(parts) == 1:
        (a, d), = parts
        return (lambda pt: -a(pt)), d
    # +, binary -, min and max compare or add operands at one common degree
    degree = max(d for _, d in parts)
    fns = [_rescaled(fn, scale ** (degree - d)) for fn, d in parts]
    if op == "+":
        return (lambda pt: sum([fn(pt) for fn in fns])), degree
    if op == "-":
        a, b = fns
        return (lambda pt: a(pt) - b(pt)), degree
    if op == "min":
        return (lambda pt: min([fn(pt) for fn in fns])), degree
    if op == "max":
        return (lambda pt: max([fn(pt) for fn in fns])), degree
    raise ShapeError(f"unknown operation {op!r}")


def _capped(degree: int) -> int:
    if degree > MAX_DEGREE:
        raise ShapeError(f"expression has degree {degree}, above the cap of {MAX_DEGREE}")
    return degree


def _rescaled(fn, factor: int):
    if factor == 1:
        return fn
    return lambda pt: fn(pt) * factor


def _samples_in_box(a, b, steps: int, box) -> range:
    """The indices s in 0..steps whose point a + (s/steps)(b - a) lies in
    the closed box, one (lo, hi) pair per axis; exact."""
    t0, t1 = Fraction(0), Fraction(1)
    for aa, bb, (lo, hi) in zip(a, b, box):
        d = bb - aa
        if d == 0:
            if not lo <= aa <= hi:
                return range(0)
            continue
        u, v = sorted(((lo - aa) / d, (hi - aa) / d))
        t0, t1 = max(t0, u), min(t1, v)
    if t0 > t1:
        return range(0)
    return range(math.ceil(t0 * steps), math.floor(t1 * steps) + 1)


def _cubes_touching(x: Fraction, L: Fraction) -> list[int]:
    """Indices k with k*L <= x <= (k+1)*L (two when x sits on a face)."""
    q = x / L
    k = int(q.__floor__())
    if q.denominator == 1:
        return [k - 1, k]
    return [k]


def model_graph(model: CubicalModel) -> Graph:
    """One vertex per cube, edges between cubes whose closed boxes meet.

    Vertices are labelled "x,y,..." and ordered by label. Closed cubes
    intersect exactly when every coordinate offset is in {-1, 0, 1}, so the
    degree never exceeds 3^p - 1.
    """
    labelled = sorted((",".join(map(str, c)), c) for c in model.cubes)
    index = {c: i for i, (_, c) in enumerate(labelled)}
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=model.ambient) if any(o)]
    rows = []
    for _, c in labelled:
        near = (index.get(tuple(map(operator.add, c, o))) for o in offsets)
        rows.append(sum(1 << j for j in near if j is not None))
    return Graph(tuple(lab for lab, _ in labelled), tuple(rows))


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class DigitizeReport:
    model: CubicalModel
    graph: Graph
    residue: Graph
    trace: HomotopyTrace
    euler: int
    profile: HomologyProfile

    def to_obj(self) -> dict[str, Any]:
        from .io import graph_to_obj

        return {
            "pitch": _fmt(self.model.pitch),
            "cubes": len(self.model.cubes),
            "graph": graph_to_obj(self.graph),
            "residue": graph_to_obj(self.residue),
            "trace_length": len(self.trace),
            "euler": self.euler,
            **self.profile.describe(),
        }


def digitize_reduce(shape: ShapeSpec, window: BoxCell, pitch: Any) -> DigitizeReport:
    """Digitize, build the intersection graph, reduce, compute invariants.

    The Euler characteristic and the homology profile are both read off the
    greedy residue, in one clique walk. They are the model graph's: each
    reduction step deletes a simple point, which preserves the homotopy type
    of the clique complex (Ivashchenko, Discrete Math. 126, 1994), and the
    test suite checks the full model graph's Euler characteristic against
    the report.
    """
    model = cubical_model(shape, window, pitch)
    g = model_graph(model)
    if g.order == 0:
        raise ShapeError("shape misses the window: empty cubical model")
    residue, trace = reduce_graph(g)
    euler, profile = _euler_and_homology(residue)
    return DigitizeReport(
        model=model, graph=g, residue=residue, trace=trace, euler=euler, profile=profile
    )


def load_shape(text: str) -> tuple[ShapeSpec, Optional[BoxCell], Optional[Fraction]]:
    """Read a shape JSON file; window and pitch are optional fields."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ShapeError("JSON nested too deeply") from None
    shape = ShapeSpec.from_obj(obj)
    window = None
    if "window" in obj:
        try:
            window = BoxCell.make(obj["window"]["lo"], obj["window"]["hi"])
        except (KeyError, TypeError) as exc:
            raise ShapeError(f"malformed window: {exc}") from exc
    pitch = _frac(obj["pitch"]) if "pitch" in obj else None
    return shape, window, pitch


# ---------------------------------------------------------------------------
# mask dumps (2-dimensional models)


def mask_csv(model: CubicalModel) -> str:
    if model.ambient != 2:
        raise ShapeError("mask dumps need a 2-dimensional model")
    xs = [c[0] for c in model.cubes]
    ys = [c[1] for c in model.cubes]
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        lines.append(
            ",".join("1" if (x, y) in model.cubes else "0" for x in range(min(xs), max(xs) + 1))
        )
    return "\n".join(lines) + "\n"


def mask_pgm(model: CubicalModel) -> str:
    if model.ambient != 2:
        raise ShapeError("mask dumps need a 2-dimensional model")
    xs = [c[0] for c in model.cubes]
    ys = [c[1] for c in model.cubes]
    w = max(xs) - min(xs) + 1
    h = max(ys) - min(ys) + 1
    rows = []
    for y in range(max(ys), min(ys) - 1, -1):
        rows.append(
            " ".join("0" if (x, y) in model.cubes else "1" for x in range(min(xs), max(xs) + 1))
        )
    return f"P2\n{w} {h}\n1\n" + "\n".join(rows) + "\n"
