"""Clique counts, Euler characteristic, and clique-complex homology.

These are the quantities contractible transformations preserve. All
computations are exact: the clique complex is shrunk by coreduction and
diagonalized over the integers (`_smith.homology_of`), which gives the
rational Betti numbers and the torsion; the GF(2) Betti numbers follow from
them. The simplices of a graph are its cliques, oriented by vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from . import _kernels as kernels
from ._kernels._pure import cliques_by_size
from ._smith import homology_of
from .graph import Graph, GraphError

# Cliques above this size are treated as pathological input; the corpus
# stays well below (Chebyshev-adjacent cube blocks peak at 8 in 3 dimensions).
CLIQUE_CAP = 9


@dataclass(frozen=True)
class CliqueVector:
    """counts[k-1] is the number of k-vertex cliques."""

    counts: tuple[int, ...]

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers over Q and GF(2) plus torsion orders per dimension.

    ``torsion[k]`` lists the cyclic orders (a divisibility chain) of the
    torsion part in dimension k. The alternating sum of ``betti_q`` equals
    the Euler characteristic, and ``betti_q[0]`` counts components.
    """

    betti_q: tuple[int, ...]
    betti_z2: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def describe(self) -> dict[str, Any]:
        return {
            "betti_q": list(self.betti_q),
            "betti_z2": list(self.betti_z2),
            "torsion": [list(t) for t in self.torsion],
        }


def _pad(seq: tuple[int, ...], n: int) -> tuple[int, ...]:
    return seq + (0,) * (n - len(seq))


def same_profile(a: HomologyProfile, b: HomologyProfile) -> bool:
    n = max(len(a.betti_q), len(b.betti_q))
    if _pad(a.betti_q, n) != _pad(b.betti_q, n):
        return False
    if _pad(a.betti_z2, n) != _pad(b.betti_z2, n):
        return False
    ta = a.torsion + ((),) * (n - len(a.torsion))
    tb = b.torsion + ((),) * (n - len(b.torsion))
    return ta == tb


# ---------------------------------------------------------------------------
# clique enumeration


def clique_vector(g: Graph) -> CliqueVector:
    """Exact clique counts, trimmed at the clique number."""
    try:
        counts = kernels.clique_counts(g.order, g._rows, CLIQUE_CAP)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    while counts and counts[-1] == 0:
        counts.pop()
    return CliqueVector(tuple(counts))


def _alternating_sum(counts) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))


def euler_characteristic(g: Graph) -> int:
    """Alternating sum over the clique vector."""
    return _alternating_sum(clique_vector(g))


def _cliques_by_size(g: Graph) -> list[list[tuple[int, ...]]]:
    """All cliques as increasing tuples of vertex indices, grouped by size."""
    try:
        return cliques_by_size(g.order, g._rows, CLIQUE_CAP)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc


# ---------------------------------------------------------------------------
# homology


def homology(g: Graph) -> HomologyProfile:
    """Simplicial homology of the clique complex, exactly.

    Profiles run from dimension 0 to the complex dimension; see
    `_smith.homology_of`.
    """
    return HomologyProfile(*homology_of(_cliques_by_size(g)))


def invariant_report(g: Graph) -> dict[str, Any]:
    """JSON-ready bundle of every preserved quantity."""
    by_size = _cliques_by_size(g)
    profile = HomologyProfile(*homology_of(by_size))
    return {"euler": _alternating_sum(len(group) for group in by_size), **profile.describe()}
