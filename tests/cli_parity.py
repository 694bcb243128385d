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

    rng = random.Random(SEED + 1)
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
