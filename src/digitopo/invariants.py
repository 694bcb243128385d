"""Clique counts, Euler characteristic, and clique-complex homology.

These are the quantities contractible transformations preserve. All
computations are exact: the clique complex is shrunk by coreduction and
diagonalized over the integers (`_smith.homology_of`), which gives the
rational Betti numbers and the torsion; the GF(2) Betti numbers follow from
them. The simplices of a graph are its cliques, oriented by vertex order,
and every invariant reads them from one walk, `_pure.cliques_by_size`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ._kernels._pure import alternating_sum, cliques_by_size
from ._smith import homology_of
from .graph import Graph, GraphError

# Cliques above this size are treated as pathological input; the corpus
# stays well below (Chebyshev-adjacent cube blocks peak at 8 in 3 dimensions).
CLIQUE_CAP = 9


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


def _padded(p: HomologyProfile, n: int) -> tuple:
    return (
        p.betti_q + (0,) * (n - len(p.betti_q)),
        p.betti_z2 + (0,) * (n - len(p.betti_z2)),
        p.torsion + ((),) * (n - len(p.torsion)),
    )


def same_profile(a: HomologyProfile, b: HomologyProfile) -> bool:
    """Equal profiles once both are padded with zeros to one dimension."""
    n = max(len(a.betti_q), len(b.betti_q))
    return _padded(a, n) == _padded(b, n)


# ---------------------------------------------------------------------------
# clique enumeration


def _cliques_by_size(g: Graph) -> list[list[tuple[int, ...]]]:
    """All cliques as increasing tuples of vertex indices, grouped by size."""
    try:
        return cliques_by_size(g._rows, (1 << g.order) - 1, CLIQUE_CAP)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc


def clique_vector(g: Graph) -> tuple[int, ...]:
    """Exact clique counts: index k-1 holds the number of k-vertex cliques,
    up to the clique number."""
    return tuple(map(len, _cliques_by_size(g)))


def euler_characteristic(g: Graph) -> int:
    """Alternating sum over the clique vector."""
    return alternating_sum(clique_vector(g))


# ---------------------------------------------------------------------------
# homology


def homology(g: Graph) -> HomologyProfile:
    """Simplicial homology of the clique complex, exactly.

    Profiles run from dimension 0 to the complex dimension; see
    `_smith.homology_of`.
    """
    return HomologyProfile(*homology_of(_cliques_by_size(g)))


def _euler_and_homology(g: Graph) -> tuple[int, HomologyProfile]:
    """The Euler characteristic and the homology, from one clique walk."""
    by_size = _cliques_by_size(g)
    return alternating_sum(map(len, by_size)), HomologyProfile(*homology_of(by_size))


def invariant_report(g: Graph) -> dict[str, Any]:
    """JSON-ready bundle of every preserved quantity."""
    euler, profile = _euler_and_homology(g)
    return {"euler": euler, **profile.describe()}
