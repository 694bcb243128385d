"""Clique counts, Euler characteristic, and clique-complex homology.

These are the quantities contractible transformations preserve. All
computations are exact: integer Smith diagonalization for rational Betti
numbers and torsion, bitmask elimination for the two-element field. The
simplices of a graph are its cliques, oriented by sorted label order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from . import _kernels as kernels
from ._kernels._pure import _bits, cliques
from ._smith import gf2_rank, smith_diagonal
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
    """All cliques as tuples of label-sorted vertex indices, grouped by size.

    Index k-1 holds the k-vertex cliques; the list ends at the clique number.
    """
    order = sorted(range(g.order), key=g._labels.__getitem__)
    rank = {v: k for k, v in enumerate(order)}
    # adjacency in rank space
    rows = [0] * g.order
    for i, r in enumerate(g._rows):
        for j in _bits(r):
            rows[rank[i]] |= 1 << rank[j]
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(CLIQUE_CAP)]
    try:
        for c in cliques(g.order, rows, CLIQUE_CAP):
            by_size[len(c) - 1].append(c)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    while by_size and not by_size[-1]:
        by_size.pop()
    return by_size


# ---------------------------------------------------------------------------
# collapses
#
# A simplex contained in exactly one other simplex can be removed together
# with that coface without changing the homotopy type of the complex. This
# shrinks cubical-model complexes by orders of magnitude before any matrix
# work happens. Having exactly one immediate coface implies having exactly
# one coface of any dimension, so immediate counts suffice.


def _collapse(by_size: list[list[tuple[int, ...]]]) -> list[set[tuple[int, ...]]]:
    alive: list[set[tuple[int, ...]]] = [set(group) for group in by_size]
    cofaces: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for k in range(1, len(alive)):
        for s in alive[k]:
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                cofaces.setdefault(face, set()).add(s)

    queue = deque(
        s for group in alive for s in sorted(group) if len(cofaces.get(s, ())) == 1
    )
    while queue:
        sigma = queue.popleft()
        k = len(sigma) - 1
        if k >= len(alive) or sigma not in alive[k]:
            continue
        cf = cofaces.get(sigma)
        if not cf or len(cf) != 1:
            continue
        (tau,) = cf
        alive[k].discard(sigma)
        alive[k + 1].discard(tau)
        for s in (sigma, tau):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                if not face:
                    continue
                owners = cofaces.get(face)
                if owners is not None:
                    owners.discard(s)
                    if len(owners) == 1 and face in alive[len(face) - 1]:
                        queue.append(face)
        cofaces.pop(sigma, None)
    while alive and not alive[-1]:
        alive.pop()
    return alive


# ---------------------------------------------------------------------------
# homology


def homology(g: Graph) -> HomologyProfile:
    """Simplicial homology of the clique complex, exactly.

    Rational Betti numbers and torsion come from integer diagonalization of
    the boundary matrices; GF(2) Betti numbers from bitmask elimination.
    Profiles run from dimension 0 to the complex dimension.
    """
    return _homology_of(_cliques_by_size(g))


def _homology_of(by_size: list[list[tuple[int, ...]]]) -> HomologyProfile:
    top = len(by_size)  # complex dimension + 1
    if top == 0:
        return HomologyProfile((), (), ())
    alive = _collapse(by_size)

    simplices = [sorted(group) for group in alive]
    index = [{s: i for i, s in enumerate(group)} for group in simplices]

    # boundary matrix per dimension k >= 1: columns over k-simplices
    ranks_q = [0] * (len(simplices) + 1)
    ranks_2 = [0] * (len(simplices) + 1)
    torsion: dict[int, tuple[int, ...]] = {}
    for k in range(1, len(simplices)):
        cols: list[dict[int, int]] = []
        bits: list[int] = []
        lower = index[k - 1]
        for s in simplices[k]:
            col: dict[int, int] = {}
            mask = 0
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                r = lower[face]
                col[r] = -1 if i % 2 else 1
                mask |= 1 << r
            cols.append(col)
            bits.append(mask)
        diag = smith_diagonal(cols)
        ranks_q[k] = len(diag)
        orders = tuple(d for d in diag if d > 1)
        if orders:
            torsion[k - 1] = orders
        ranks_2[k] = gf2_rank(bits)

    betti_q = []
    betti_2 = []
    for k in range(top):
        nk = len(simplices[k]) if k < len(simplices) else 0
        betti_q.append(nk - ranks_q[k] - ranks_q[k + 1] if k < len(simplices) else 0)
        betti_2.append(nk - ranks_2[k] - ranks_2[k + 1] if k < len(simplices) else 0)
    tors = tuple(torsion.get(k, ()) for k in range(top))
    return HomologyProfile(tuple(betti_q), tuple(betti_2), tors)


def invariant_report(g: Graph) -> dict[str, Any]:
    """JSON-ready bundle of every preserved quantity."""
    by_size = _cliques_by_size(g)
    prof = _homology_of(by_size)
    return {
        "euler": _alternating_sum(len(group) for group in by_size),
        "betti_q": list(prof.betti_q),
        "betti_z2": list(prof.betti_z2),
        "torsion": [list(t) for t in prof.torsion],
    }
