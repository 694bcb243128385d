"""Exact integer homology of simplicial complexes.

Arbitrary-precision integers throughout; no floating point. `homology_of`
shrinks the chain complex by coreduction, then diagonalizes what is left
with `smith_diagonal`, whose matrices arrive as a list of columns, each a
dict mapping row index to a nonzero integer.
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
        rank_of = {c: i for i, c in enumerate(left[k - 1])}
        columns = [
            {rank_of[f]: -1 if i % 2 else 1 for i, f in enumerate(faces[c]) if alive[f]}
            for c in left[k]
        ]
        diag = smith_diagonal(columns)
        betti_q[k] -= len(diag)
        betti_q[k - 1] -= len(diag)
        torsion[k - 1] = tuple(d for d in diag if d > 1)
    even = [sum(1 for d in t if d % 2 == 0) for t in torsion]
    betti_z2 = tuple(b + even[k] + (even[k - 1] if k else 0) for k, b in enumerate(betti_q))
    return tuple(betti_q), betti_z2, tuple(torsion)


def smith_diagonal(columns: list[dict[int, int]]) -> list[int]:
    """Diagonal of an integer diagonalization of the sparse matrix.

    Row and column operations are unimodular, so the cokernel of the matrix
    is the direct sum of Z/d over the returned entries (plus free summands).
    The list is normalized to a divisibility chain; its length is the rank.
    """
    # row-major working copy with a column index
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = v
                col_rows.setdefault(j, set()).add(i)

    diag: list[int] = []

    def drop_entry(i: int, j: int) -> None:
        del rows[i][j]
        if not rows[i]:
            del rows[i]
        col_rows[j].discard(i)
        if not col_rows[j]:
            del col_rows[j]

    def set_entry(i: int, j: int, v: int) -> None:
        if v:
            rows.setdefault(i, {})[j] = v
            col_rows.setdefault(j, set()).add(i)
        elif i in rows and j in rows[i]:
            drop_entry(i, j)

    def add_row(src: int, dst: int, mult: int) -> None:
        # row[dst] += mult * row[src]
        for j, v in list(rows.get(src, {}).items()):
            set_entry(dst, j, rows.get(dst, {}).get(j, 0) + mult * v)

    def add_col(src: int, dst: int, mult: int) -> None:
        for i in list(col_rows.get(src, set())):
            v = rows[i][src]
            set_entry(i, dst, rows.get(i, {}).get(dst, 0) + mult * v)

    while rows:
        # pivot choice: unit entries first, smallest fill, then magnitude
        best = None
        for i, row in rows.items():
            for j, v in row.items():
                av = abs(v)
                fill = (len(row) - 1) * (len(col_rows[j]) - 1)
                key = (av != 1, av, fill, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, pi, pj = best

        while True:
            piv = rows[pi][pj]
            # clear the pivot column with exact or Euclidean steps
            touched = False
            for i in list(col_rows.get(pj, set())):
                if i == pi:
                    continue
                v = rows[i][pj]
                q = v // piv
                if q:
                    add_row(pi, i, -q)
                if rows.get(i, {}).get(pj):
                    # remainder is a strictly smaller pivot; swap roles
                    pi = i
                    touched = True
                    break
            if touched:
                continue
            piv = rows[pi][pj]
            # clear the pivot row
            touched = False
            for j in list(rows.get(pi, {}).keys()):
                if j == pj:
                    continue
                v = rows[pi][j]
                q = v // piv
                if q:
                    add_col(pj, j, -q)
                if rows.get(pi, {}).get(j):
                    pj = j
                    touched = True
                    break
            if touched:
                continue
            break

        diag.append(abs(rows[pi][pj]))
        drop_entry(pi, pj)

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
