"""Bitmask graph kernels.

A graph enters a kernel as its ``rows``, where ``rows[i]`` is an integer
whose bit ``j`` is set exactly when vertices ``i`` and ``j`` are adjacent,
and a mask of the vertices whose induced subgraph is asked about
(``(1 << n) - 1`` for the whole graph). Answers name the caller's vertices:

    canon_bytes(rows, mask)     exact canonical form of the induced subgraph,
                                memoized on its dense rows tuple (the key of
                                the contractibility memo too; for the whole
                                graph, ``rows`` as they are)
    decide(rows, alive)         the one contractibility decision, on one
                                rim table: (verdict, tier 1-3, deletion
                                order), the order a witness to one vertex
                                for every True verdict but a cone's (empty);
                                an optional start mask names the only
                                vertices whose rims may be contractible,
                                where the greedy pass begins
    contractible_on(rows, mask) is the induced subgraph contractible? (a
                                cone at once, else `decide` on its dense
                                rows, which key the memo: it sees every copy)
    connected(rows, mask)       non-empty and connected
    clear_caches()              empty the contractibility and canonical-form
                                memos

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
)
