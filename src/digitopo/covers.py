"""Axis-aligned box covers: validity checks, nerves, boundary traces, merges.

Cells are boxes with rational corners on a Euclidean or periodic (flat
torus) lattice, which keeps every intersection exactly computable. A
cover's geometry runs on its corners and periods scaled to integers
(`BoxCover._lattice`); Fractions remain only in parsing, `BoxCover.make`,
output, and boxes going back into a cover. There are no epsilons anywhere.

The nerve (intersection graph) is kept as bitmask rows, ``rows[i]`` having
bit ``j`` set when cells i and j meet, from one pairwise pass per cover:
`BoxCover._pair_pieces` keeps the lattice pieces of every meeting pair,
`BoxCover._nerve_rows` reads the nerve off them, both on first use, and
validation, `nerve` and `boundary_trace_cover` read them, so no pair is
intersected twice. Validation walks the cliques of the nerve once with the
package's clique walk (`_kernels._pure.cliques`): a clique whose cells
share a point gets the locally-lump check, which requires every nonempty
k-wise intersection to be a single box of dimension n+1-k lying in the
relative boundary of each participating cell; a clique whose cells share
no point and that no other cell meets entirely is a maximal clique
breaking the locally-centered check, read the Helly way (every pairwise
intersecting subfamily must share a common point).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

from ._kernels._pure import _bits, canon_bytes, cliques
from .graph import Graph
from .invariants import CLIQUE_CAP


class CoverError(ValueError):
    """Invalid cells, domains or cover operations."""


def _frac(x: Any) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, float):
            # exact conversion of the decimal text, not of the binary float
            return Fraction(repr(x))
    except (ValueError, ZeroDivisionError):
        pass
    raise CoverError(f"cannot read rational value {x!r}")


def _fmt(x: Fraction) -> Any:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class BoxCell:
    """An axis-aligned box; its dimension is the number of fat axes."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    @staticmethod
    def make(lo: Sequence[Any], hi: Sequence[Any]) -> "BoxCell":
        if not isinstance(lo, (list, tuple)) or not isinstance(hi, (list, tuple)):
            raise CoverError(f"lo and hi must be coordinate lists, got {lo!r} and {hi!r}")
        lof = tuple(_frac(x) for x in lo)
        hif = tuple(_frac(x) for x in hi)
        if len(lof) != len(hif):
            raise CoverError("lo and hi have different lengths")
        for a, b in zip(lof, hif):
            if b < a:
                raise CoverError(f"negative extent: {a} > {b}")
        return BoxCell(lof, hif)

    @property
    def ambient(self) -> int:
        return len(self.lo)

    @property
    def dimension(self) -> int:
        return sum(1 for a, b in zip(self.lo, self.hi) if b > a)

    def to_obj(self) -> dict[str, Any]:
        return {"lo": [_fmt(x) for x in self.lo], "hi": [_fmt(x) for x in self.hi]}


@dataclass(frozen=True)
class BoxCover:
    """A collection of n-cells over a Euclidean or periodic domain.

    ``periods[k]`` is None for a Euclidean axis or the period of a flat
    torus axis; periodic extents must stay below the period so every
    pairwise overlap has an unambiguous representative.
    """

    cells: tuple[BoxCell, ...]
    periods: tuple[Optional[Fraction], ...]
    n: int

    @staticmethod
    def make(cells: Iterable[BoxCell], periods: Sequence[Any], n: int) -> "BoxCover":
        cells = tuple(cells)
        pf = tuple(None if p is None else _frac(p) for p in periods)
        if not cells:
            raise CoverError("cover has no cells")
        p = cells[0].ambient
        if len(pf) != p:
            raise CoverError("period list length differs from ambient dimension")
        for per in pf:
            if per is not None and per <= 0:
                raise CoverError("periods must be positive")
        normalized = []
        for c in cells:
            if c.ambient != p:
                raise CoverError("mixed ambient dimensions")
            if c.dimension != n:
                raise CoverError(f"cell {c.to_obj()} has dimension {c.dimension}, declared {n}")
            lo = list(c.lo)
            hi = list(c.hi)
            for ax, per in enumerate(pf):
                if per is None:
                    continue
                if hi[ax] - lo[ax] >= per:
                    raise CoverError("periodic cell extent must be below the period")
                shift = (lo[ax] // per) * per
                lo[ax] -= shift
                hi[ax] -= shift
            normalized.append(BoxCell(tuple(lo), tuple(hi)))
        return BoxCover(tuple(normalized), pf, n)

    @property
    def ambient(self) -> int:
        return self.cells[0].ambient

    @functools.cached_property
    def _lattice(self) -> tuple[int, tuple[BoxCell, ...], tuple[Optional[int], ...]]:
        """``(scale, cells, periods)``: the corners and periods times
        ``scale``, the lcm of all their denominators, as ints. Computed on
        first use and kept (not a field, so equality and output ignore it)."""
        values = [x for c in self.cells for x in c.lo + c.hi]
        values += [p for p in self.periods if p is not None]
        scale = math.lcm(*(x.denominator for x in values))

        def up(x: Fraction) -> int:
            return x.numerator * (scale // x.denominator)

        cells = tuple(BoxCell(tuple(map(up, c.lo)), tuple(map(up, c.hi))) for c in self.cells)
        periods = tuple(None if p is None else up(p) for p in self.periods)
        return scale, cells, periods

    @functools.cached_property
    def _pair_pieces(self) -> dict[tuple[int, int], list]:
        """Per-axis lattice pieces of the intersection of cells ``i < j``,
        for every pair that meets; kept like `_lattice`."""
        _, cells, periods = self._lattice
        out = {}
        for i, j in itertools.combinations(range(len(cells)), 2):
            pieces = _intersection_pieces([cells[i], cells[j]], periods)
            if pieces is not None:
                out[i, j] = pieces
        return out

    @functools.cached_property
    def _nerve_rows(self) -> tuple[int, ...]:
        """Bitmask rows of the intersection graph, read off `_pair_pieces`."""
        rows = [0] * len(self.cells)
        for i, j in self._pair_pieces:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)

    def to_obj(self) -> dict[str, Any]:
        return {
            "ambient": self.ambient,
            "n": self.n,
            "domain": {"periodic": [None if p is None else _fmt(p) for p in self.periods]},
            "cells": [c.to_obj() for c in self.cells],
        }

    @staticmethod
    def from_obj(obj: Any) -> "BoxCover":
        try:
            ambient = obj["ambient"]
            n = obj["n"]
            domain = obj.get("domain", {})
            cells = [BoxCell.make(c["lo"], c["hi"]) for c in obj["cells"]]
        except (KeyError, TypeError) as exc:
            raise CoverError(f"malformed cover object: {exc}") from exc
        for key, value in (("ambient", ambient), ("n", n)):
            if type(value) is not int:
                raise CoverError(f"cover {key!r} must be an integer, got {value!r}")
        if not isinstance(domain, dict):
            raise CoverError(f"cover 'domain' must be an object, got {domain!r}")
        periods = domain.get("periodic", [None] * ambient)
        if not isinstance(periods, list):
            raise CoverError(f"'periodic' must be an array, got {periods!r}")
        if len(periods) != ambient:
            raise CoverError("periodic list length differs from ambient")
        cover = BoxCover.make(cells, periods, n)
        if cover.ambient != ambient:
            raise CoverError("cells do not match the declared ambient dimension")
        return cover


def load_cover(text: str) -> BoxCover:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise CoverError("JSON nested too deeply") from None
    return BoxCover.from_obj(obj)


# ---------------------------------------------------------------------------
# exact interval geometry, on a cover's integer lattice (`BoxCover._lattice`)
#
# On a periodic axis an interval is an arc; the intersection of arcs can
# have up to two components, which is never a box. _axis_pieces returns the
# disjoint components (merged when they touch), each normalized to start in
# [0, period).


def _axis_pieces(
    intervals: Sequence[tuple[int, int]], period: Optional[int]
) -> list[tuple[int, int]]:
    if period is None:
        lo = max(a for a, _ in intervals)
        hi = min(b for _, b in intervals)
        return [(lo, hi)] if lo <= hi else []
    pieces = [intervals[0]]
    for a2, b2 in intervals[1:]:
        nxt: list[tuple[int, int]] = []
        for a1, b1 in pieces:
            for k in (-1, 0, 1):
                lo = max(a1, a2 + k * period)
                hi = min(b1, b2 + k * period)
                if lo <= hi:
                    nxt.append((lo, hi))
        nxt.sort()
        merged: list[tuple[int, int]] = []
        for lo, hi in nxt:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        # two pieces can also touch around the wrap
        if len(merged) >= 2 and merged[0][0] + period <= merged[-1][1]:
            merged[0] = (merged[-1][0] - period, merged[0][1])
            merged.pop()
            merged.sort()
        pieces = merged
        if not pieces:
            return []
    out = []
    for lo, hi in pieces:
        shift = (lo // period) * period
        out.append((lo - shift, hi - shift))
    return sorted(out)


def _intersection_pieces(
    cells: Sequence[BoxCell], periods: Sequence[Optional[int]]
) -> Optional[list[list[tuple[int, int]]]]:
    """Per-axis piece lists of the common intersection; None when empty."""
    out = []
    for ax, period in enumerate(periods):
        pieces = _axis_pieces([(c.lo[ax], c.hi[ax]) for c in cells], period)
        if not pieces:
            return None
        out.append(pieces)
    return out


def _single_box(pieces: list[list[tuple[int, int]]]) -> Optional[BoxCell]:
    """The box of per-axis ``pieces`` when every axis has one piece, else None."""
    if any(len(ax) != 1 for ax in pieces):
        return None
    return BoxCell(tuple(ax[0][0] for ax in pieces), tuple(ax[0][1] for ax in pieces))


def _unscale(box: BoxCell, scale: int) -> BoxCell:
    """A lattice box back in the cover's own coordinates."""
    return BoxCell(*(tuple(Fraction(x, scale) for x in xs) for xs in (box.lo, box.hi)))


def _box_in_relative_boundary(
    box: BoxCell, cell: BoxCell, periods: Sequence[Optional[int]]
) -> bool:
    """Is ``box`` inside the relative boundary of ``cell``?

    True when some fat axis of the cell sees the box pinned to one of its
    two facet coordinates. Degenerate axes of the cell carry no facets.
    """
    for ax, period in enumerate(periods):
        if cell.hi[ax] == cell.lo[ax]:
            continue
        if box.lo[ax] != box.hi[ax]:
            continue
        x = box.lo[ax]
        for facet in (cell.lo[ax], cell.hi[ax]):
            if x == facet:
                return True
            if period is not None and (x - facet) % period == 0:
                return True
    return False


# ---------------------------------------------------------------------------
# LCL validation


@dataclass(frozen=True)
class LclViolation:
    indices: tuple[int, ...]
    clause: str  # "LC" | "LL-dimension" | "LL-boundary"
    detail: str

    def to_obj(self) -> dict[str, Any]:
        return {"indices": list(self.indices), "clause": self.clause, "detail": self.detail}


@dataclass(frozen=True)
class LclReport:
    verdict: bool
    violations: tuple[LclViolation, ...]

    def to_obj(self) -> dict[str, Any]:
        return {"verdict": self.verdict, "violations": [v.to_obj() for v in self.violations]}


def _ll_violations(
    cover: BoxCover, indices: tuple[int, ...], pieces: list[list[tuple[int, int]]]
) -> list[LclViolation]:
    """The locally-lump clauses for cells ``indices`` whose common
    intersection has the per-axis lattice ``pieces``."""
    _, cells, periods = cover._lattice
    box = _single_box(pieces)
    if box is None:
        return [LclViolation(indices, "LL-dimension", "intersection is not a single box")]
    out = []
    dim = box.dimension
    k = len(indices)
    want = cover.n + 1 - k
    if want < 0:
        detail = f"{k} cells meet but only {cover.n + 1} may share a point"
        out.append(LclViolation(indices, "LL-dimension", detail))
    elif dim != want:
        detail = f"intersection has dimension {dim}, expected {want}"
        out.append(LclViolation(indices, "LL-dimension", detail))
    for i in indices:
        if not _box_in_relative_boundary(box, cells[i], periods):
            detail = f"intersection not inside the boundary of cell {i}"
            out.append(LclViolation(indices, "LL-boundary", detail))
    return out


def validate_lcl(cover: BoxCover) -> LclReport:
    """Check the locally-centered and locally-lump clauses.

    One walk over the cliques of two or more cells of the nerve decides
    both. LL: every clique whose cells share a point has a single box of
    dimension n+1-k as intersection, inside the relative boundary of each
    member. LC: every maximal clique has a common point (subfamilies
    inherit it); a clique without one is reported when no cell outside it
    meets all its members. Violations are data, not errors; a nerve clique
    above `invariants.CLIQUE_CAP` cells raises CoverError (at most n+1 cells
    of a valid cover meet).
    """
    rows = cover._nerve_rows
    _, cells, periods = cover._lattice
    violations: list[LclViolation] = []
    try:
        for clique in cliques(rows, (1 << len(rows)) - 1, CLIQUE_CAP):
            if len(clique) < 2:
                continue
            if len(clique) == 2:
                pieces = cover._pair_pieces[clique]
            else:
                pieces = _intersection_pieces([cells[i] for i in clique], periods)
            if pieces is not None:
                violations += _ll_violations(cover, clique, pieces)
                continue
            common = -1
            for i in clique:
                common &= rows[i]
            if not common:
                detail = "pairwise intersecting subfamily has no common point"
                violations.append(LclViolation(clique, "LC", detail))
    except ValueError as exc:
        raise CoverError(f"cover nerve has a {exc}") from exc
    violations.sort(key=lambda v: (v.indices, v.clause, v.detail))
    return LclReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# nerve and boundary trace


def nerve(cover: BoxCover) -> Graph:
    """Intersection graph: one vertex per cell, edges between meeting cells."""
    labels = tuple(f"c{i}" for i in range(len(cover.cells)))
    return Graph(labels, cover._nerve_rows)


def boundary_trace_cover(cover: BoxCover, i: int) -> tuple[BoxCover, bool]:
    """Trace cell i's neighborhood onto its boundary.

    Returns the collection of pairwise intersections with cell i as an
    (n-1)-dimensional cover, plus the verdict that its nerve is isomorphic
    to the nerve induced on the neighbors of cell i (which holds on valid
    LCL input). Both nerves are read from the covers' own rows, and the
    traces from the lattice pieces of the cover's pairwise pass.
    """
    if not 0 <= i < len(cover.cells):
        raise CoverError(f"no cell {i}")
    rows = cover._nerve_rows
    traces = [_single_box(cover._pair_pieces[min(i, j), max(i, j)]) for j in _bits(rows[i])]
    if None in traces:
        raise CoverError("intersection is not a single box")
    if not traces:
        raise CoverError(f"cell {i} has no neighbors")
    boxes = [_unscale(b, cover._lattice[0]) for b in traces]
    traced = BoxCover.make(boxes, cover.periods, cover.n - 1)
    induced = canon_bytes(rows, rows[i])
    return traced, induced == canon_bytes(traced._nerve_rows, (1 << len(traces)) - 1)


# ---------------------------------------------------------------------------
# merging simple subcollections


def _union_box(cells: Sequence[BoxCell], periods) -> BoxCell:
    """Bounding box of cells lifted into a common frame; raises when the
    cells do not tile it exactly (the union is then not a box)."""
    p = cells[0].ambient
    lifted = [list(zip(cells[0].lo, cells[0].hi))]
    for c in cells[1:]:
        best = None
        for shifts in itertools.product(*[
            (0,) if periods[ax] is None else (-periods[ax], 0, periods[ax])
            for ax in range(p)
        ]):
            cand = [(c.lo[ax] + shifts[ax], c.hi[ax] + shifts[ax]) for ax in range(p)]
            # prefer the shift overlapping or touching the current frame
            ok = all(
                cand[ax][1] >= min(iv[ax][0] for iv in lifted)
                and cand[ax][0] <= max(iv[ax][1] for iv in lifted)
                for ax in range(p)
            )
            if ok:
                best = cand
                break
        if best is None:
            raise CoverError("union is not a box (cells do not meet in a common frame)")
        lifted.append(best)
    lo = tuple(min(iv[ax][0] for iv in lifted) for ax in range(p))
    hi = tuple(max(iv[ax][1] for iv in lifted) for ax in range(p))
    for ax, period in enumerate(periods):
        if period is not None and hi[ax] - lo[ax] >= period:
            raise CoverError("union is not a box (wraps a full period)")
    # exact tiling check on the grid induced by all cut coordinates
    cuts = [sorted({lo[ax], hi[ax], *[iv[ax][0] for iv in lifted], *[iv[ax][1] for iv in lifted]}) for ax in range(p)]
    for corner in itertools.product(*[range(len(c) - 1) for c in cuts]):
        cell_lo = [cuts[ax][corner[ax]] for ax in range(p)]
        cell_hi = [cuts[ax][corner[ax] + 1] for ax in range(p)]
        covered = any(
            all(iv[ax][0] <= cell_lo[ax] and cell_hi[ax] <= iv[ax][1] for ax in range(p))
            for iv in lifted
        )
        if not covered:
            raise CoverError("union is not a box (grid cell uncovered)")
    return BoxCell(lo, hi)


def merge_cells(cover: BoxCover, subset: Sequence[int]) -> tuple[BoxCover, LclReport]:
    """Replace a subcollection by its union box and re-validate.

    Rejects when the union is not a box or when the merged cover fails the
    LCL check, naming the clause.
    """
    subset = sorted(set(subset))
    if len(subset) < 2:
        raise CoverError("merge needs at least two cells")
    for i in subset:
        if not 0 <= i < len(cover.cells):
            raise CoverError(f"no cell {i}")
    scale, lattice_cells, periods = cover._lattice
    union = _union_box([lattice_cells[i] for i in subset], periods)
    if union.dimension != cover.n:
        raise CoverError(f"union has dimension {union.dimension}, expected {cover.n}")
    kept = [c for i, c in enumerate(cover.cells) if i not in subset]
    cells = kept[: subset[0]] + [_unscale(union, scale)] + kept[subset[0] :]
    merged = BoxCover.make(cells, cover.periods, cover.n)
    report = validate_lcl(merged)
    if not report.verdict:
        raise CoverError(
            f"merged cover fails LCL: {report.violations[0].clause} "
            f"({report.violations[0].detail})"
        )
    return merged, report
