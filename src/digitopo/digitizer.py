"""Cubical models of continuous shapes and their intersection graphs.

A shape is digitized by collecting the lattice cubes at pitch L that meet
it, judged by a deterministic corner-and-center sample grid: 3 positions
per axis, at multiples of the half pitch L/2. Neighbouring cubes share
samples, so regions and hypersurfaces are evaluated once per point of the
shared half-pitch lattice. `_compile` turns the expression into one lazy
stream of integers over a common denominator and only the sign of each
point is kept; curve samples are integers over a common denominator too,
so the verdicts are exact and use no floats. The model graph joins
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

# Operations nest at most this deep, so parsing, `eval_expr` and `_compile`
# recurse far below the interpreter's limit, and the iterators of a stream
# from `_compile` nest at most three per operation, never one per operand.
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

    Everything runs on integers over a common scale. A region or
    hypersurface is evaluated once at every point of the half-pitch lattice
    over the window's cube range, as one lazy stream from `_compile`, and
    only the sign of each point is kept; each cube then reads the OR of its
    samples' sign codes at its corner point, after one shifted OR pass per
    axis. A curve sample is one integer numerator per axis over the
    segment's denominator, whose quotient is the cube index.
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
    if shape.kind == "curve":
        return CubicalModel(L, p, frozenset(_curve_cubes(shape.points, L, ranges)))
    if not all(ranges):
        return CubicalModel(L, p, frozenset())

    # Lattice points are laid out flat, the last axis fastest.
    half = L / 2
    scale = math.lcm(half.denominator, *_const_denominators(shape.expr))
    step = half.numerator * (scale // half.denominator)
    axes = [[k * step for k in range(2 * r.start, 2 * r.stop + 1)] for r in ranges]
    values = _compile(shape.expr, scale, axes)[0]
    points = math.prod(map(len, axes))
    signs = bytes(
        _NEG if v < 0 else _POS if v else _ZERO for v in itertools.islice(values, points)
    )
    # Byte i of `seen` ORs the codes at i, i + s and i + 2s along each axis
    # of stride s, so a cube's 3^p samples meet at its corner point.
    seen = int.from_bytes(signs, "little")
    strides = [math.prod(map(len, axes[ax + 1 :])) for ax in range(p)]
    for s in strides:
        seen |= seen >> 8 * s | seen >> 16 * s
    seen = seen.to_bytes(points, "little")
    hits = _REGION_HITS if shape.kind == "region" else _HYPERSURFACE_HITS
    corners = itertools.product(
        *[range(0, 2 * len(r) * s, 2 * s) for r, s in zip(ranges, strides)]
    )
    cubes = {
        cube
        for cube, corner in zip(itertools.product(*ranges), map(sum, corners))
        if hits[seen[corner]]
    }
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


def _compile(expr, scale: int, axes: Sequence[Sequence[int]]):
    """Compile an expression into a lazy stream of exact integer values.

    Returns ``(values, degree)``. The lattice is ``itertools.product(*axes)``,
    whose coordinates are integers ``x_i * scale``; ``values`` yields
    ``f(x) * scale**degree`` as an int at each lattice point in turn, so its
    signs are the signs of f. ``scale`` must be a multiple of every
    constant's denominator. Each node is one `map` (over a `zip` of its
    operands when it has several), so the stream holds no per-point state
    and nests at most three iterators deep per operation. A degree above
    `MAX_DEGREE` raises ShapeError here, before any value is drawn; a
    variable beyond the lattice's axes raises when the first value is.
    """
    op = expr[0]
    if op == "const":
        c = expr[1]
        return itertools.repeat(c.numerator * (scale // c.denominator)), 1
    if op == "var":
        idx = expr[1]
        if idx >= len(axes):
            return _missing_axis(idx, len(axes)), 1
        return map(operator.itemgetter(idx), itertools.product(*axes)), 1
    parts = [_compile(a, scale, axes) for a in expr[1:]]
    if op == "*":
        return map(math.prod, zip(*[v for v, _ in parts])), _capped(sum(d for _, d in parts))
    if op == "square":
        (a, d), = parts
        return map(pow, a, itertools.repeat(2)), _capped(2 * d)
    if op == "abs":
        (a, d), = parts
        return map(abs, a), d
    if op == "-" and len(parts) == 1:
        (a, d), = parts
        return map(operator.neg, a), d
    # +, binary -, min and max compare or add operands at one common degree
    degree = max(d for _, d in parts)
    ops = [v if d == degree else map((scale ** (degree - d)).__mul__, v) for v, d in parts]
    if op == "+":
        return map(sum, zip(*ops)), degree
    if op == "-":
        return map(operator.sub, *ops), degree
    if op == "min":
        return map(min, zip(*ops)), degree
    if op == "max":
        return map(max, zip(*ops)), degree
    raise ShapeError(f"unknown operation {op!r}")


def _capped(degree: int) -> int:
    if degree > MAX_DEGREE:
        raise ShapeError(f"expression has degree {degree}, above the cap of {MAX_DEGREE}")
    return degree


def _missing_axis(idx: int, ambient: int):
    """A stream that raises on its first value: the expression reads axis
    ``idx`` of points with ``ambient`` coordinates."""
    raise ShapeError(f"expression uses axis {idx}, point has {ambient}")
    yield  # a generator, so the raise waits for the first value


def _curve_cubes(points, L: Fraction, ranges) -> set[tuple[int, ...]]:
    """The cubes of ``ranges`` that the polyline's samples touch.

    With ``scale`` the common denominator of every coordinate over L, a
    segment sampled ``steps`` times puts sample s at ``(n + s*d) / D`` pitches
    on each axis, for integers n, d and ``D = scale * steps``. The quotient
    is the cube index and a zero remainder a face, where the sample touches
    the cube below too.
    """
    p = len(ranges)
    if any(len(pt) != p for pt in points):
        raise ShapeError("curve points do not match the window dimension")
    scaled = [[x / L for x in pt] for pt in points]
    scale = math.lcm(*[q.denominator for pt in scaled for q in pt])
    scaled = [[q.numerator * (scale // q.denominator) for q in pt] for pt in scaled]
    cubes = set()
    for a, b in zip(scaled, scaled[1:]):
        deltas = [bb - aa for aa, bb in zip(a, b)]
        # at most a quarter pitch, in L1 length, between samples
        steps = max(1, -(-4 * sum(map(abs, deltas)) // scale))
        D = scale * steps
        axes = [(aa * steps, d) for aa, d in zip(a, deltas)]
        for s in _samples_in_box(axes, D, steps, ranges):
            at = [divmod(n + s * d, D) for n, d in axes]
            cubes.update(itertools.product(*[(k - 1, k) if r == 0 else (k,) for k, r in at]))
    return {c for c in cubes if all(x in r for x, r in zip(c, ranges))}


def _samples_in_box(axes, D: int, steps: int, ranges) -> range:
    """The indices s in 0..steps whose sample ``(n + s*d) / D`` lies in the
    closed box of the cube ranges on every axis, one (n, d) pair per axis."""
    first, last = 0, steps
    for (n, d), r in zip(axes, ranges):
        lo, hi = r.start * D - n, r.stop * D - n
        if d == 0:
            if not lo <= 0 <= hi:
                return range(0)
            continue
        if d < 0:
            lo, hi = hi, lo
        first, last = max(first, -(-lo // d)), min(last, hi // d)
    return range(first, last + 1)


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
    """Read a shape JSON file; window and pitch are optional fields.

    Malformed JSON raises json.JSONDecodeError; any other malformed field,
    a window bound or the pitch included, raises ShapeError."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ShapeError("JSON nested too deeply") from None
    shape = ShapeSpec.from_obj(obj)
    window = pitch = None
    try:
        if "window" in obj:
            window = BoxCell.make(obj["window"]["lo"], obj["window"]["hi"])
        if "pitch" in obj:
            pitch = _frac(obj["pitch"])
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"malformed window: {exc}") from exc
    except CoverError as exc:
        raise ShapeError(str(exc)) from None
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
