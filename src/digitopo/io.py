"""Reading and writing graphs: JSON objects, plain edge lists, DOT export."""

from __future__ import annotations

import re
from typing import Any

from .graph import Graph, GraphError, build_graph


def graph_to_obj(g: Graph) -> dict[str, Any]:
    """JSON-ready object with vertices and edge pairs in label order."""
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges()],
    }


def graph_from_obj(obj: Any) -> Graph:
    """Parse the graph JSON object; duplicates are rejected here."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GraphError("graph object must have a 'vertices' array")
    vertices = obj["vertices"]
    edges_raw = obj.get("edges", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphError("'vertices' must be an array of strings")
    if not isinstance(edges_raw, list):
        raise GraphError("'edges' must be an array of 2-element string arrays")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex in graph object")
    seen = set()
    edges = []
    for e in edges_raw:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise GraphError(f"edge entries must be 2-element string arrays, got {e!r}")
        key = frozenset(e)
        if len(key) == 1:
            raise GraphError(f"self-loop {e!r} rejected")
        if key in seen:
            raise GraphError(f"duplicate edge {e!r}")
        seen.add(key)
        edges.append((e[0], e[1]))
    return build_graph(vertices, edges)


# ---------------------------------------------------------------------------
# plain-text edge lists
#
# One "u v" pair per line; lines with a single token declare isolated
# vertices; "#" starts a comment. The parser also reads the DOT syntax
# emitted by to_dot (quoted labels, "--" separators, braces, semicolons),
# which makes export-dot output re-importable. A quoted label is read
# whole, with "\\", "\"", "\n", "\r" and "\uXXXX" escapes (not of a
# surrogate, which no output could encode); only outside quotes does "#"
# start a comment and "--" separate. to_dot writes every character that
# str.splitlines breaks on as an escape, so one statement stays one line.

_QUOTED_OR_COMMENT = re.compile(r'"((?:[^"\\]|\\.)*)"|#.*')
_ESCAPE = re.compile(r'\\(["\\nr]|u(?![dD][89a-fA-F])[0-9a-fA-F]{4})')
_DOT_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"}
    | {c: f"\\u{ord(c):04x}" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)


def parse_edge_list(text: str) -> Graph:
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def add_vertex(v: str) -> None:
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for raw in text.splitlines():
        # each quoted label becomes one '"' in the line, to be put back
        # after the split; a comment is cut
        quoted: list[str] = []

        def take(m: re.Match) -> str:
            if m.group(1) is None:
                return ""
            quoted.append(_ESCAPE.sub(_unescape, m.group(1)))
            return '"'

        line = _QUOTED_OR_COMMENT.sub(take, raw).strip()
        if line.count('"') != len(quoted):
            raise GraphError(f"unterminated quote in edge-list line: {raw!r}")
        if not line or line.startswith(("graph", "}")):
            continue
        line = line.rstrip(";").strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("--")] if "--" in line else line.split()
        labels = iter(quoted)
        parts = [re.sub('"', lambda _: next(labels), p) for p in parts if p]
        if len(parts) == 1:
            add_vertex(parts[0])
        elif len(parts) == 2:
            u, v = parts
            add_vertex(u)
            add_vertex(v)
            edges.append((u, v))
        else:
            raise GraphError(f"cannot parse edge-list line: {raw!r}")
    return build_graph(vertices, edges)


def _unescape(m: re.Match) -> str:
    e = m.group(1)
    return chr(int(e[1:], 16)) if len(e) == 5 else {"n": "\n", "r": "\r"}.get(e, e)


def _dot_label(v: str) -> str:
    return '"' + v.translate(_DOT_ESCAPES) + '"'


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for u, v in g.edges():
        lines.append(f"  {_dot_label(u)} -- {_dot_label(v)};")
    for v in g.vertices:
        if not g.degree(v):
            lines.append(f"  {_dot_label(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
