"""Bitmask graph kernels.

A graph enters a kernel as ``(n, rows)``, where ``rows[i]`` is an integer
whose bit ``j`` is set exactly when vertices ``i`` and ``j`` are adjacent;
a kernel on an induced subgraph takes the rows and a mask of its vertices:

    canon_bytes(n, rows)        exact canonical form of an adjacency-mask graph
    decide(rows, alive)         the one contractibility decision, on the
                                subgraph induced on a vertex mask:
                                (verdict, tier 1-3, deletion order), the
                                order a witness to one vertex for every
                                True verdict but a cone's (empty)
    is_contractible(n, rows)    `decide` on the whole graph, memoized on rows
    contractible_on(rows, mask) is the induced subgraph on ``mask``
                                contractible? (a cone at once, else
                                `is_contractible` on its dense rows)
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
    contractible_on,
    decide,
    is_contractible,
)
