"""Cubical models of continuous shapes and their intersection graphs.

A shape is digitized by collecting the lattice cubes at pitch L that meet
it, judged by a deterministic corner-and-center sample grid: 3 positions
per axis, at multiples of the half pitch L/2. Neighbouring cubes share
samples, so regions and hypersurfaces are evaluated once per point of the
shared half-pitch lattice. `_compile` evaluates each subtree of the
expression on the lattice axes it reads, in integers over a common
denominator, and only the sign of each point is kept; curve samples are
integers over a common denominator too, so the verdicts are exact and use
no floats. The model graph joins cubes whose closed boxes intersect, i.e.
cubes within Chebyshev distance one, found at fixed flat offsets. Reducing
the model graph and reading its invariants reproduces the experiment chain
shape -> cubical model -> intersection graph.
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

# Operations nest at most this deep, so parsing and `_compile` recurse far
# below the interpreter's limit, and the iterators of a stream
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
    over the window's cube range, as one stream from `_compile`: a subtree
    that reads one axis, such as a shell's ``square(x - c)``, is computed
    once per coordinate of that axis, and only the subtrees that read two
    or more axes run per point. Only the sign of each point is kept; each
    cube then reads the OR of its samples' sign codes at its corner point,
    after one shifted OR pass per axis. A curve sample is one integer
    numerator per axis over the segment's denominator, whose quotient is
    the cube index.
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
    signs = bytes(_NEG if v < 0 else _POS if v else _ZERO for v in values)
    points = len(signs)
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
    hit = map(hits.__getitem__, map(seen.__getitem__, map(sum, corners)))
    return CubicalModel(L, p, frozenset(itertools.compress(itertools.product(*ranges), hit)))


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
    constant's denominator.

    Each subtree is evaluated on the axes it reads (`_subtree`,
    `_combine`): one int when it reads none, one list over an axis's
    coordinates when it reads one, and a lazy per-point `map` over the
    whole lattice only when it reads two or more, with the lists of its
    one-axis operands broadcast into lattice order by `_on_lattice`. The
    stream holds no per-point state and nests at most three iterators per
    operation, never one per operand. A degree above `MAX_DEGREE` raises ShapeError here, at
    the node that passes it and before that node's value is formed; a
    variable beyond the lattice's axes raises when the first value is drawn.
    """
    sizes = list(map(len, axes))
    reads, values, degree = _subtree(expr, scale, axes, sizes)
    return _on_lattice(reads, values, sizes), degree


def _subtree(expr, scale: int, axes, sizes):
    """``(reads, values, degree)`` of one subtree at ``f * scale**degree``:
    ``reads`` is ``()`` with ``values`` an int, ``(i,)`` with ``values`` one
    value per coordinate of axis i, or None with ``values`` a lazy stream
    over the whole lattice."""
    op = expr[0]
    if op == "const":
        c = expr[1]
        return (), c.numerator * (scale // c.denominator), 1
    if op == "var":
        idx = expr[1]
        if idx >= len(axes):
            return None, _missing_axis(idx, len(axes)), 1
        return (idx,), axes[idx], 1
    parts = [_subtree(a, scale, axes, sizes) for a in expr[1:]]
    operands = [(r, v) for r, v, _ in parts]
    degrees = [d for _, _, d in parts]
    if op == "*":
        degree = _capped(sum(degrees))
    elif op == "square":
        degree = _capped(2 * degrees[0])
    else:
        # +, -, min and max add or compare their operands at one common degree
        degree = max(degrees)
        operands = [
            rv if d == degree else _combine("*", [rv, ((), scale ** (degree - d))], sizes)
            for rv, d in zip(operands, degrees)
        ]
    return (*_combine(op, operands, sizes), degree)


def _combine(op: str, parts, sizes):
    """``(reads, values)`` of one operation over ``(reads, values)`` operands:
    an int when none reads an axis, a list when all that do read the same
    one, else a lazy stream over the whole lattice."""
    reads = {r for r, _ in parts} - {()}
    if not reads:
        (value,) = _apply(op, [(v,) for _, v in parts])
        return (), value
    if None not in reads and len(reads) == 1:
        (only,) = reads
        return only, list(_apply(op, [itertools.repeat(v) if r == () else v for r, v in parts]))
    return None, _apply(op, [_on_lattice(r, v, sizes) for r, v in parts])


def _apply(op: str, ops: list):
    """One operation over aligned operand iterables, one value per position;
    nests at most two iterators whatever the number of operands."""
    if op in ("+", "*"):
        pair, fold = (operator.add, sum) if op == "+" else (operator.mul, math.prod)
        if len(ops) > 3:
            return map(fold, zip(*ops))
        # up to three operands, nested pairs beat a tuple per position
        values = ops[0]
        for more in ops[1:]:
            values = map(pair, values, more)
        return values
    if op == "-":
        return map(operator.sub, *ops) if len(ops) == 2 else map(operator.neg, *ops)
    if op == "abs":
        return map(abs, *ops)
    if op == "square":
        return map(pow, *ops, itertools.repeat(2))
    # a generator compares two operands faster than the builtins' calls
    if op == "min":
        if len(ops) == 2:
            return (a if a <= b else b for a, b in zip(*ops))
        return map(min, zip(*ops))
    if op == "max":
        if len(ops) == 2:
            return (a if a >= b else b for a, b in zip(*ops))
        return map(max, zip(*ops))
    raise ShapeError(f"unknown operation {op!r}")


def _on_lattice(reads, values, sizes):
    """A subtree's values as a stream over the whole lattice, the last axis
    fastest: an int repeated at every point, or an axis's values each
    repeated over the axes after it, and that sequence repeated over the
    axes before it."""
    if reads is None:
        return values
    if reads == ():
        return itertools.repeat(values, math.prod(sizes))
    (axis,) = reads
    outer, inner = math.prod(sizes[:axis]), math.prod(sizes[axis + 1 :])
    if outer > 1:
        values = itertools.chain.from_iterable(itertools.repeat(values, outer))
    if inner > 1:
        values = map(itertools.repeat, values, itertools.repeat(inner))
        values = itertools.chain.from_iterable(values)
    return values


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

    Each cube gets one flat integer position in the model's bounding box
    padded by one cube on every side, with the last axis fastest; its
    neighbours sit at its position plus the 3^p - 1 flat offsets, and the
    padding keeps an offset from wrapping across the box's edge. Each pair
    is probed once, from the lower position through the positive offsets,
    and sets both rows' bits. The positions key the vertex indices in a
    dict rather than a padded list, so a sparse model costs its cubes, not
    its box.
    """
    labelled = sorted((",".join(map(str, c)), c) for c in model.cubes)
    cubes = [c for _, c in labelled]
    sizes = [max(col) - min(col) + 3 for col in zip(*cubes)]
    strides = [math.prod(sizes[ax + 1 :]) for ax in range(len(sizes))]
    flat = [sum(map(operator.mul, c, strides)) for c in cubes]
    index = dict(zip(flat, range(len(flat)))).get
    steps = itertools.product((-1, 0, 1), repeat=model.ambient)
    forward = [d for d in (sum(map(operator.mul, o, strides)) for o in steps) if d > 0]
    rows = [0] * len(flat)
    for i, q in enumerate(flat):
        for j in map(index, map(operator.add, forward, itertools.repeat(q))):
            if j is not None:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
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
