"""Bitmask graph kernels.

A graph enters every kernel as ``(n, rows)``, where ``rows[i]`` is an
integer whose bit ``j`` is set exactly when vertices ``i`` and ``j`` are
adjacent:

    canon_bytes(n, rows)        exact canonical form of an adjacency-mask graph
    is_contractible(n, rows)    exact reducibility-to-a-point decision
    contraction_order(n, rows)  witnessing deletion order, or None
    connected(n, rows)          non-empty and connected
    clear_caches()              empty the contractibility memo

The one implementation is `_pure`, whose `BACKEND` is always ``"pure"``.
Its clique walk, `_pure.cliques` and the grouped `_pure.cliques_by_size`,
is the one clique enumeration in the package: `invariants` reads the Euler
characteristic and the homology off it, `covers` validates nerves with it.
"""

from ._pure import (  # noqa: F401
    BACKEND,
    canon_bytes,
    clear_caches,
    connected,
    contraction_order,
    is_contractible,
)
