"""Exact integer homology of simplicial complexes.

Arbitrary-precision integers throughout; no floating point. `homology_of`
shrinks the chain complex by coreduction, then diagonalizes what is left
with `smith_diagonal`, whose matrices arrive as a list of columns, each a
dict mapping a row key (`homology_of` uses cell ids) to an integer.
Coreduction leaves small matrices, so the elimination is the textbook one,
on the columns alone.
"""

from __future__ import annotations

from collections import deque
from math import gcd


def homology_of(
    by_size: list[list[tuple[int, ...]]],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(betti_q, betti_z2, torsion)`` of a simplicial complex, exactly.

    ``by_size[k]`` lists the (k+1)-vertex simplices as increasing tuples of
    vertex indices, every face of a listed simplex listed too, and each
    simplex oriented by its vertex order. ``torsion[k]`` is the divisibility
    chain of cyclic orders of the torsion in dimension k. The tuples run
    from dimension 0 to the complex dimension.

    Coreduction (Mrozek & Batko, Discrete Comput. Geom. 41, 2009) removes a
    cell ``b`` together with ``a`` whenever ``a`` is the only face of ``b``
    left. Simplicial incidences are +-1, so the pair's removal keeps the
    integer homology, and each surviving boundary is the old one restricted
    to the surviving cells (Kaczynski, Mrozek & Slusarek, Comput. Math.
    Appl. 35, 1998). When no pair is left and a vertex is, that vertex is
    removed as one free generator of H_0, which happens once per connected
    component. A FIFO queue of candidates leaves fewer cells than a stack.
    The cells left over go through one Smith diagonalization per dimension,
    and the GF(2) Betti numbers follow by the universal coefficient theorem.
    """
    top = len(by_size)
    if top == 0:
        return (), (), ()
    # cells numbered dimension by dimension; faces[c] in vertex-drop order,
    # so the face dropping position i has incidence (-1)**i
    index: dict[tuple[int, ...], int] = {}
    dims: list[int] = []
    faces: list[list[int]] = []
    for k, group in enumerate(by_size):
        for s in group:
            index[s] = len(dims)
            dims.append(k)
            faces.append([index[s[:i] + s[i + 1 :]] for i in range(len(s))] if k else [])
    cofaces: list[list[int]] = [[] for _ in dims]
    for c, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(c)
    alive_faces = [len(fs) for fs in faces]
    alive = bytearray(b"\x01") * len(dims)
    queue: deque[int] = deque()

    def remove(c: int) -> None:
        alive[c] = 0
        for u in cofaces[c]:
            if alive[u]:
                alive_faces[u] -= 1
                if alive_faces[u] == 1:
                    queue.append(u)

    h0 = 0
    for v in range(len(by_size[0])):
        if not alive[v]:
            continue
        h0 += 1
        remove(v)
        while queue:
            b = queue.popleft()
            if alive[b] and alive_faces[b] == 1:
                alive[b] = 0
                remove(next(f for f in faces[b] if alive[f]))
                remove(b)

    left = [[] for _ in range(top)]
    for c in range(len(dims)):
        if alive[c]:
            left[dims[c]].append(c)
    betti_q = [h0] + [len(group) for group in left[1:]]
    torsion = [()] * top
    for k in range(1, top):
        diag = smith_diagonal(
            [{f: -1 if i % 2 else 1 for i, f in enumerate(faces[c]) if alive[f]} for c in left[k]]
        )
        betti_q[k] -= len(diag)
        betti_q[k - 1] -= len(diag)
        torsion[k - 1] = tuple(d for d in diag if d > 1)
    even = [sum(1 for d in t if d % 2 == 0) for t in torsion]
    betti_z2 = tuple(b + even[k] + (even[k - 1] if k else 0) for k, b in enumerate(betti_q))
    return tuple(betti_q), betti_z2, tuple(torsion)


def smith_diagonal(columns: list[dict[int, int]]) -> list[int]:
    """Diagonal of an integer diagonalization of the sparse matrix whose
    columns map a row key to an entry (zeros allowed).

    Textbook Euclidean elimination: an entry of least absolute value is the
    pivot; column operations clear its row and row operations its column,
    and a nonzero remainder, being smaller, becomes the pivot instead. A
    pivot alone in its row and column is recorded and its column dropped.
    Every step is unimodular, so the cokernel of the matrix is the direct
    sum of Z/d over the returned entries (plus free summands). The list is
    normalized to a divisibility chain, the invariant factors; its length
    is the rank.
    """
    cols = [{i: v for i, v in col.items() if v} for col in columns]
    diag: list[int] = []
    while cols := [col for col in cols if col]:
        _, j, i = min((abs(v), j, i) for j, col in enumerate(cols) for i, v in col.items())
        pivot = cols[j]
        while True:
            p = pivot[i]
            other = next((col for col in cols if i in col and col is not pivot), None)
            if other is not None:
                # column operation: other -= q * pivot
                q = other[i] // p
                for r, v in pivot.items():
                    other[r] = other.get(r, 0) - q * v
                    if not other[r]:
                        del other[r]
                if i in other:
                    pivot = other
                continue
            # row operations: row r -= q * row i. Only the pivot column
            # holds row i now, so nothing else changes.
            for r in [r for r in pivot if r != i]:
                pivot[r] %= p
                if not pivot[r]:
                    del pivot[r]
            if len(pivot) == 1:
                break
            i = next(r for r in pivot if r != i)
        diag.append(abs(p))
        pivot.clear()

    # normalize to a divisibility chain (group-preserving gcd/lcm swaps)
    changed = True
    while changed:
        changed = False
        diag.sort()
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = gcd(diag[a], diag[b])
                    l = diag[a] * diag[b] // g
                    diag[a], diag[b] = g, l
                    changed = True
    return diag
