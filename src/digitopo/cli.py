"""Batch command-line interface.

JSON goes to stdout, diagnostics to stderr. Exit codes: 0 when the request
succeeded, 1 when it computed cleanly but the property failed (invalid
cover, non-recognized graph, failed replay), 2 on malformed or unsupported
input (a clique above the cap, rims nested too deep for the recursion
limit, an input too large for the available memory). Output is
deterministic: everything upstream uses fixed tie-breaking, and objects
are serialized with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from . import catalog
from .classify import classify, is_n_manifold, is_n_sphere
from .covers import CoverError, _frac, boundary_trace_cover, load_cover, nerve, validate_lcl
from .digitizer import ShapeError, digitize_reduce, load_shape, mask_csv
from .graph import Graph, GraphError
from .homotopy import HomotopyTrace, TransformationError, apply_trace, reduce as reduce_graph
from .invariants import invariant_report
from .io import graph_from_obj, graph_to_obj, parse_edge_list, to_dot


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_json(path: str, text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def _load_graph(path: str) -> Graph:
    text = _read(path)
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return graph_from_obj(_parse_json(path, text))
        return parse_edge_list(text)
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(obj: Any, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "sphere" and args.dim is not None:
        verdict = is_n_sphere(g, args.dim)
    elif args.kind == "manifold" and args.dim is not None:
        verdict = is_n_manifold(g, args.dim)
    else:
        verdict = classify(g, args.dim)
    _emit(verdict.to_obj(), args.pretty)
    return 0 if verdict.ok else 1


def _cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    residue, trace = reduce_graph(g)
    _emit({"residue": graph_to_obj(residue), "trace": trace.to_obj()}, args.pretty)
    return 0


def _cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    _emit(invariant_report(g), args.pretty)
    return 0


def _cmd_digitize(args) -> int:
    try:
        shape, window, pitch = load_shape(_read(args.shape))
    except (json.JSONDecodeError, ShapeError) as exc:
        raise InputError(f"{args.shape}: {exc}") from exc
    if args.pitch is not None:
        try:
            pitch = _frac(args.pitch)
        except CoverError as exc:
            raise InputError(f"--pitch: {exc}") from exc
    if window is None:
        raise InputError(f"{args.shape}: shape file has no window")
    if pitch is None:
        raise InputError(f"{args.shape}: no pitch given (file field or --pitch)")
    report = digitize_reduce(shape, window, pitch)
    if args.dump_csv:
        try:
            Path(args.dump_csv).write_text(mask_csv(report.model))
        except OSError as exc:
            raise InputError(f"--dump-csv: {exc}") from exc
    _emit(report.to_obj(), args.pretty)
    return 0


def _cmd_cover(args) -> int:
    try:
        cover = load_cover(_read(args.cover))
    except (json.JSONDecodeError, CoverError) as exc:
        raise InputError(f"{args.cover}: {exc}") from exc
    if args.action == "validate":
        report = validate_lcl(cover)
        _emit(report.to_obj(), args.pretty)
        return 0 if report.verdict else 1
    if args.action == "nerve":
        _emit(graph_to_obj(nerve(cover)), args.pretty)
        return 0
    # trace
    if args.cell is None:
        raise InputError("cover trace needs --cell")
    traced, verdict = boundary_trace_cover(cover, args.cell)
    _emit(
        {
            "isomorphic": verdict,
            "trace_cover": traced.to_obj(),
            "trace_nerve": graph_to_obj(nerve(traced)),
        },
        args.pretty,
    )
    return 0 if verdict else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(catalog.names(), args.pretty)
        return 0
    try:
        entry = catalog.get(args.name)
    except KeyError as exc:
        raise InputError(str(exc.args[0])) from exc
    report = entry._report  # validated and cached by `catalog.get`
    _emit(
        {
            "name": entry.name,
            "graph": graph_to_obj(entry.graph),
            "expected": entry.expected,
            "construction": entry.construction,
            "validation": report,
        },
        args.pretty,
    )
    return 0 if report["ok"] else 1


def _cmd_replay(args) -> int:
    g = _load_graph(args.graph)
    try:
        trace = HomotopyTrace.from_obj(_parse_json(args.trace, _read(args.trace)))
    except TransformationError as exc:
        raise InputError(f"{args.trace}: {exc}") from exc
    try:
        result = apply_trace(g, trace)
    except TransformationError as exc:
        _emit({"ok": False, "error": str(exc)}, args.pretty)
        return 1
    _emit({"ok": True, "result": graph_to_obj(result)}, args.pretty)
    return 0


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    # DOT is UTF-8 text; JSON escapes admit labels with a lone surrogate
    for v in g.vertices:
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"{args.graph}: label {v!r} has no UTF-8 encoding") from None
    sys.stdout.write(to_dot(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="digitopo", description=__doc__)
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    ap.add_argument("--seed", type=int, default=None, help="reserved; outputs are deterministic")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="recognize spheres, manifolds, surfaces")
    p.add_argument("graph")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--kind", choices=["sphere", "manifold", "auto"], default="auto")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reduce", help="greedy simple-point reduction with trace")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("invariants", help="Euler characteristic and homology")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("digitize", help="cubical model pipeline for a shape file")
    p.add_argument("shape")
    p.add_argument("--pitch", default=None)
    p.add_argument("--dump-csv", default=None)
    p.set_defaults(fn=_cmd_digitize)

    p = sub.add_parser("cover", help="box-cover operations")
    p.add_argument("action", choices=["validate", "nerve", "trace"])
    p.add_argument("cover")
    p.add_argument("--cell", type=int, default=None)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("catalog", help="browse the built-in catalog")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("replay", help="replay a trace file against a graph")
    p.add_argument("graph")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("export-dot", help="DOT output for visualization")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_export_dot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        print("catalog show needs a name", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (InputError, GraphError, CoverError, ShapeError, TransformationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("input error: input too deep for the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        print("input error: input too large for the available memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
