"""Kernel backend selection.

The compiled extension (`_core`, Cython) and the pure-Python module
(`_pure`) implement the same four calls with identical semantics:

    canon_bytes(n, rows)        exact canonical form of an adjacency-mask graph
    is_contractible(n, rows)    exact reducibility-to-a-point decision
    contraction_order(n, rows)  witnessing deletion order, or None
    clique_counts(n, rows, cap) counts of k-vertex cliques

They reach the same verdicts and orders by different routes. `_pure` decides
contractibility in three tiers: greedy simple-point deletion (True when it
reaches a point, and its deletion order is the witness), then the homology
of the stuck residue (False unless it is that of a point), then the exact
backtracking search on what is left. It memoizes verdicts on the exact input
rows, and on canonical forms only for nodes of the exact search. `_core` runs
the exact search directly, memoized on canonical forms at every node; its
first branch is the greedy order, so the witnesses agree.

The sphere recognizer's deletion clause calls `_pure.contractible_within`
directly, so it runs on `_pure` whatever the backend: it decides each
``G - v`` on the parent rows with a rim table shared by all n clauses,
which has no counterpart in `_core`.

The compiled backend handles graphs up to 64 vertices; larger graphs route
to the pure backend automatically. Set DIGITOPO_PURE_KERNELS=1 to force the
pure backend (used by the parity tests and the benchmark).
"""

from __future__ import annotations

import importlib
import os

from . import _pure

_core = None
if os.environ.get("DIGITOPO_PURE_KERNELS") != "1":
    try:
        _core = importlib.import_module("digitopo._kernels._core")
    except ImportError:
        _core = None

BACKEND = "compiled" if _core is not None else "pure"


def canon_bytes(n: int, rows) -> bytes:
    if _core is not None and n <= 64:
        return _core.canon_bytes(n, rows)
    return _pure.canon_bytes(n, rows)


def is_contractible(n: int, rows) -> bool:
    if _core is not None and n <= 64:
        return _core.is_contractible(n, rows)
    return _pure.is_contractible(n, rows)


def contraction_order(n: int, rows):
    if _core is not None and n <= 64:
        return _core.contraction_order(n, rows)
    return _pure.contraction_order(n, rows)


def clique_counts(n: int, rows, cap: int = 9) -> list[int]:
    if _core is not None and n <= 64:
        return _core.clique_counts(n, rows, cap)
    return _pure.clique_counts(n, rows, cap)


def connected(n: int, rows) -> bool:
    return _pure.connected(n, rows)


def clear_caches() -> None:
    _pure.clear_caches()
    if _core is not None:
        _core.clear_caches()
