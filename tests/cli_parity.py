"""CLI parity corpus: the exact output of `digitopo` commands on fixed graphs.

Each case is one graph and one command line (see `_commands`). The command
runs twice, on the graph written as a JSON object and as an edge list (DOT
text for every other graph), and the case's digest is a SHA-256 prefix of
both runs' stdout, stderr and exit code. The graphs are the 12 catalog entries and
300 seeded random graphs of 1-11 vertices: plain random graphs, and
cycles, their suspensions (2- and 3-spheres) and minimal spheres with a
few adjacencies toggled. Every input lists its vertices and edges in a
shuffled order, and labels like ``v3`` and ``v12`` sort differently as
strings and as numbers, so an output that leaks the input order or the
numeric order shows up as a changed digest.

Each graph also gets four `replay` cases, whose digests cover the trace
file they replay as well as both runs: the graph's own `reduce` trace; a
seeded walk of accepted steps of all four kinds, whose new labels sort
before, among and after the others; that walk's `invert_trace`, replayed
on the walk's target; and the walk with a rejected step inserted, which
fails there (exit 1, ``step i: ...``).

`tests/test_parity.py` checks the recorded digests. A change that must keep
the CLI output byte-identical leaves them as they are; re-record them only
for a change meant to alter the output:

    PYTHONPATH=src python tests/cli_parity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

DATA = Path(__file__).with_name("cli_parity.json")
SEED = 2028
RANDOM_GRAPHS = 300


def _graphs():
    """``(name, vertices, edges)`` of every graph, in a fixed order."""
    from digitopo import catalog

    rng = random.Random(SEED)
    for name in catalog.names():
        g = catalog.get(name).graph
        yield f"catalog-{name}", sorted(g.vertices), sorted(tuple(sorted(e)) for e in g.edges())
    for k in range(RANDOM_GRAPHS):
        n, edges = _structured(rng, k) if k % 2 else _plain(rng, k)
        labels = [f"v{i}" for i in rng.sample(range(40), n)]
        yield f"random-{k:03d}", labels, [(labels[a], labels[b]) for a, b in sorted(edges)]


def _plain(rng: random.Random, k: int) -> tuple[int, set]:
    n = 1 + k % 11
    p = rng.choice((0.25, 0.4, 0.55, 0.7, 0.85))
    return n, {(a, b) for a, b in itertools.combinations(range(n), 2) if rng.random() < p}


def _structured(rng: random.Random, k: int) -> tuple[int, set]:
    """A cycle, suspended up to twice, or a minimal sphere, with 0-2
    adjacencies toggled."""
    if k % 6 == 5:
        d = rng.randint(0, 4)
        n = 2 * d + 2
        edges = {(a, b) for a, b in itertools.combinations(range(n), 2) if a // 2 != b // 2}
    else:
        n = rng.randint(4, 9)
        edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
        for _ in range(rng.randint(0, 2)):
            if n + 2 <= 11:
                edges |= {(i, p) for i in range(n) for p in (n, n + 1)}
                n += 2
    for _ in range(rng.choice((0, 0, 1, 2))):
        if n >= 2:
            edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
    return n, edges


def _json_text(rng: random.Random, vertices, edges) -> str:
    vs, es = list(vertices), [list(e) for e in edges]
    rng.shuffle(vs)
    rng.shuffle(es)
    for e in es:
        rng.shuffle(e)
    return json.dumps({"vertices": vs, "edges": es})


def _edge_text(rng: random.Random, vertices, edges, dot: bool) -> str:
    """Edge-list or DOT text, edges in a shuffled order, each isolated
    vertex on a line of its own among them."""
    covered = {v for e in edges for v in e}
    lines = [list(e) for e in edges] + [[v] for v in vertices if v not in covered]
    rng.shuffle(lines)
    for line in lines:
        rng.shuffle(line)
    if dot:
        body = [" -- ".join(f'"{v}"' for v in line) + ";" for line in lines]
        return "graph G {\n" + "".join(f"  {s}\n" for s in body) + "}\n"
    return "".join(" ".join(line) + "\n" for line in lines)


def _commands(name: str, k: int) -> list[list[str]]:
    """The command lines run on graph ``k``: a catalog graph is asked to be
    a sphere and a manifold at every dimension, a random graph at one."""
    spheres, manifolds = (range(5), range(1, 5)) if name.startswith("catalog") else ([k % 4], [1 + k % 3])
    return [
        ["classify"],
        *(["classify", "--kind", "sphere", "--dim", str(d)] for d in spheres),
        *(["classify", "--kind", "manifold", "--dim", str(d)] for d in manifolds),
        ["reduce"],
        ["invariants"],
        ["export-dot"],
    ]


def _fresh_label(rng: random.Random, vertices, k: int) -> str:
    """A new label that sorts before every label, just after a drawn one,
    or after every label (all labels here start with a letter or digit)."""
    return rng.choice(("+x", f"{rng.choice(vertices)}~", "zx")) + str(k)


def _random_step(rng: random.Random, g, k: int, names):
    """One drawn step on ``g``, whether or not it is accepted; ``names`` are
    the labels its existing vertices are drawn from."""
    from digitopo.homotopy import AttachEdge, AttachPoint, DeleteEdge, DeletePoint

    kind = rng.choice(("delete-point", "attach-point", "delete-edge", "attach-edge"))
    if kind == "delete-point":
        return DeletePoint(rng.choice(names))
    if kind == "attach-point" or len(names) < 2:
        rim = rng.sample(names, rng.randint(1, min(3, len(names))))
        return AttachPoint(_fresh_label(rng, g.vertices, k), frozenset(rim))
    if kind == "delete-edge" and g.size and rng.random() < 0.8:
        return DeleteEdge(*rng.choice(g.edges()))
    u, v = rng.sample(names, 2)
    return (DeleteEdge if kind == "delete-edge" else AttachEdge)(u, v)


def _walk(rng: random.Random, g, length: int = 8):
    """A trace of up to ``length`` accepted steps from ``g``, and its target."""
    from digitopo.homotopy import HomotopyTrace, TransformationError, apply_transformation

    steps: list = []
    for k in range(4 * length):
        if len(steps) == length:
            break
        step = _random_step(rng, g, k, list(g.vertices))
        try:
            g = apply_transformation(g, step)
        except TransformationError:
            continue
        steps.append(step)
    return HomotopyTrace(tuple(steps)), g


def _perturbed(rng: random.Random, g, walk):
    """``walk`` with a step that is rejected at a drawn position inserted."""
    from digitopo.homotopy import (
        DeletePoint,
        HomotopyTrace,
        TransformationError,
        apply_trace,
        apply_transformation,
    )

    at = rng.randint(0, len(walk))
    here = apply_trace(g, HomotopyTrace(walk.steps[:at]))
    bad = DeletePoint("absent")
    for k in range(40):
        step = _random_step(rng, here, 100 + k, [*here.vertices, "absent"])
        try:
            apply_transformation(here, step)
        except TransformationError:
            bad = step
            break
    return HomotopyTrace(walk.steps[:at] + (bad,) + walk.steps[at:])


def _replays(rng: random.Random, g):
    """``(kind, start graph, trace)`` of the four replay cases on ``g``."""
    from digitopo.homotopy import invert_trace, reduce

    walk, target = _walk(rng, g)
    yield "reduce", g, reduce(g)[1]
    yield "walk", g, walk
    yield "inverse", target, invert_trace(g, walk)
    yield "perturbed", g, _perturbed(rng, g, walk)


def _run(argv: list[str]) -> list:
    from digitopo.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [out.getvalue(), err.getvalue(), code]


@contextlib.contextmanager
def _one_parser():
    """Build the CLI's argument parser once: building it costs more than
    most of the commands run here, and parsing leaves it as it was."""
    from digitopo import cli

    parser, build = cli.build_parser(), cli.build_parser
    cli.build_parser = lambda: parser
    try:
        yield
    finally:
        cli.build_parser = build


def digests(workdir: Path) -> dict[str, str]:
    """Every case's digest, running the CLI in this process on input files
    written to ``workdir``. Both caches are cleared before each graph, as a
    fresh CLI process starts."""
    from digitopo import _kernels, classify
    from digitopo.graph import build_graph

    rng, replay_rng = random.Random(SEED + 1), random.Random(SEED + 2)
    out: dict[str, str] = {}
    with _one_parser():
        for k, (name, vertices, edges) in enumerate(_graphs()):
            paths = [workdir / f"{name}.json", workdir / f"{name}.{'dot' if k % 2 else 'txt'}"]
            paths[0].write_text(_json_text(rng, vertices, edges), encoding="utf-8")
            paths[1].write_text(_edge_text(rng, vertices, edges, k % 2 == 1), encoding="utf-8")
            _kernels.clear_caches()
            classify.clear_caches()
            pretty = ["--pretty"] if k % 3 == 0 else []
            for cmd in _commands(name, k):
                runs = [_run(pretty + cmd[:1] + [str(p)] + cmd[1:]) for p in paths]
                blob = json.dumps(runs).replace(str(workdir), "<dir>")
                out[f"{name}/{' '.join(cmd)}"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
            for kind, start, trace in _replays(replay_rng, build_graph(vertices, edges)):
                graph_paths = paths
                if kind == "inverse":
                    target = (start.vertices, start.edges())
                    graph_paths = [workdir / f"{name}.target.json", workdir / f"{name}.target.txt"]
                    texts = [_json_text(replay_rng, *target), _edge_text(replay_rng, *target, False)]
                    for path, text in zip(graph_paths, texts):
                        path.write_text(text, encoding="utf-8")
                trace_path = workdir / f"{name}.{kind}.trace.json"
                trace_text = json.dumps(trace.to_obj())
                trace_path.write_text(trace_text, encoding="utf-8")
                runs = [_run(pretty + ["replay", str(p), str(trace_path)]) for p in graph_paths]
                blob = json.dumps([trace_text, runs]).replace(str(workdir), "<dir>")
                out[f"{name}/replay {kind}"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return out


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    DATA.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} digests written to {DATA}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
