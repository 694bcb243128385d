"""Pure-Python bit-twiddling kernels for the rest of the package.

A graph enters kernel functions as ``(n, rows)`` where ``rows[i]`` is an
integer whose bit ``j`` is set exactly when vertices ``i`` and ``j`` are
adjacent. Python integers make this work for any vertex count; the optional
compiled backend (`digitopo._kernels._core`) accelerates the same calls for
graphs with at most 64 vertices.

Everything is deterministic. Contractibility answers are memoized on exact
canonical forms, so isomorphic presentations can never receive different
answers, and a cached verdict is always safe to reuse.
"""

from __future__ import annotations

import os

BACKEND = "pure"

# Key layout: 2-byte vertex count, 1 tag byte (0 = connected, packed
# adjacency; 1 = disconnected, sorted multiset of component keys), payload.
_EMPTY_KEY = (0).to_bytes(2, "big") + b"\x00"

# Contractibility memo, keyed on canonical form. The cap guards unbounded
# growth on adversarial workloads; clearing is always sound.
_MEMO_CAP = int(os.environ.get("DIGITOPO_MEMO_CAP", "1000000"))
_contractible: dict[bytes, bool] = {}


def clear_caches() -> None:
    _contractible.clear()


def _memo_put(key: bytes, value: bool) -> None:
    if len(_contractible) >= _MEMO_CAP:
        _contractible.clear()
    _contractible[key] = value


# ---------------------------------------------------------------------------
# basic mask helpers


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def connected(n: int, rows) -> bool:
    """True when the graph is non-empty and connected."""
    if n == 0:
        return False
    full = (1 << n) - 1
    seen = 1
    frontier = 1
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= rows[v]
        frontier = new & ~seen
        seen |= frontier
    return seen == full


def subgraph_rows(rows, mask: int) -> tuple[int, list[int]]:
    """Induced subgraph on the set bits of ``mask``, reindexed densely."""
    verts = _bits(mask)
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        r = rows[v] & mask
        nr = 0
        for u in _bits(r):
            nr |= 1 << pos[u]
        out.append(nr)
    return len(verts), out


# ---------------------------------------------------------------------------
# canonical form
#
# Individualization-refinement canonical labeling. The canonical form is the
# lexicographically smallest packed upper-triangle adjacency over all leaves
# of the refinement tree. Branch choices depend only on isomorphism-invariant
# data (degree groups, neighbor-count buckets), so the minimum is invariant.
# Exactness matters: these bytes key every memo table in the package.


def _refine(rows, cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement of an ordered partition (deterministic)."""
    while True:
        changed = False
        for si in range(len(cells)):
            smask = 0
            for v in cells[si]:
                smask |= 1 << v
            new_cells: list[tuple[int, ...]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((rows[v] & smask).bit_count(), []).append(v)
                if len(buckets) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for k in sorted(buckets):
                        new_cells.append(tuple(buckets[k]))
            cells = new_cells
            if changed:
                break
        if not changed:
            return cells


def _pack(rows, order: list[int]) -> bytes:
    n = len(order)
    acc = 0
    for i in range(n):
        ri = rows[order[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | ((ri >> order[j]) & 1)
    nbits = n * (n - 1) // 2
    return acc.to_bytes((nbits + 7) // 8, "big")


def _component_masks(n: int, rows) -> list[int]:
    unseen = (1 << n) - 1
    masks = []
    while unseen:
        seen = unseen & -unseen
        frontier = seen
        while frontier:
            new = 0
            for v in _bits(frontier):
                new |= rows[v]
            frontier = new & unseen & ~seen
            seen |= frontier
        unseen &= ~seen
        masks.append(seen)
    return masks


def canon_bytes(n: int, rows) -> bytes:
    """Exact canonical form: equal bytes if and only if isomorphic.

    A disconnected graph is keyed by the sorted multiset of its component
    keys; a connected one by the minimum packed adjacency over the leaves of
    an individualization-refinement tree. Twin vertices (equal neighbor sets,
    with or without a mutual edge) are branch-pruned: swapping twins is an
    automorphism, so their subtrees yield the same minimum.
    """
    if n == 0:
        return _EMPTY_KEY
    header = n.to_bytes(2, "big")
    if n == 1:
        return header + b"\x00"
    comps = _component_masks(n, rows)
    if len(comps) > 1:
        keys = []
        for mask in comps:
            cn, crows = subgraph_rows(rows, mask)
            keys.append(canon_bytes(cn, crows))
        return header + b"\x01" + b"".join(sorted(keys))

    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(rows[v].bit_count(), []).append(v)
    cells = _refine(rows, [tuple(buckets[d]) for d in sorted(buckets)])

    best: bytes | None = None

    def search(cells: list[tuple[int, ...]]) -> None:
        nonlocal best
        target = None
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                target = i
                break
        if target is None:
            cand = _pack(rows, [cell[0] for cell in cells])
            if best is None or cand < best:
                best = cand
            return
        cell = cells[target]
        branched: list[int] = []
        for v in cell:
            twin = False
            for u in branched:
                if rows[u] == rows[v] or rows[u] ^ rows[v] == (1 << u) | (1 << v):
                    twin = True
                    break
            if twin:
                continue
            branched.append(v)
            rest = tuple(w for w in cell if w != v)
            child = cells[:target] + [(v,), rest] + cells[target + 1 :]
            search(_refine(rows, child))

    search(cells)
    assert best is not None
    return header + b"\x00" + best


# ---------------------------------------------------------------------------
# contractibility
#
# A graph reduces to one point iff some vertex with a contractible rim can be
# deleted leaving a contractible graph. The DFS below tries candidates in
# greedy order (minimum degree, then index), which makes the first explored
# branch the greedy pass; on failure it backtracks through every candidate,
# so the final verdict is exact rather than order-dependent.


def is_contractible(n: int, rows) -> bool:
    if n == 0:
        return False
    if n == 1:
        return True
    if not connected(n, rows):
        return False
    key = canon_bytes(n, rows)
    hit = _contractible.get(key)
    if hit is not None:
        return hit
    result = False
    order = sorted(range(n), key=lambda v: (rows[v].bit_count(), v))
    for v in order:
        rn, rrows = subgraph_rows(rows, rows[v])
        if not is_contractible(rn, rrows):
            continue
        dn, drows = subgraph_rows(rows, ((1 << n) - 1) ^ (1 << v))
        if is_contractible(dn, drows):
            result = True
            break
    _memo_put(key, result)
    return result


def contraction_order(n: int, rows) -> list[int] | None:
    """A witnessing deletion order down to one vertex, or None.

    The search reuses negative memo entries for pruning but rebuilds the
    positive path explicitly, so the returned order always replays.
    """
    if n == 0:
        return None
    acc: list[int] = []
    if _witness(n, list(rows), list(range(n)), acc):
        return acc
    return None


def _witness(n: int, rows, names: list[int], acc: list[int]) -> bool:
    if n == 1:
        return True
    if not connected(n, rows):
        return False
    key = canon_bytes(n, rows)
    if _contractible.get(key) is False:
        return False
    order = sorted(range(n), key=lambda v: (rows[v].bit_count(), v))
    for v in order:
        rn, rrows = subgraph_rows(rows, rows[v])
        if not is_contractible(rn, rrows):
            continue
        dn, drows = subgraph_rows(rows, ((1 << n) - 1) ^ (1 << v))
        dnames = [names[u] for u in range(n) if u != v]
        acc.append(names[v])
        if _witness(dn, drows, dnames, acc):
            return True
        acc.pop()
    _memo_put(key, False)
    return False


# ---------------------------------------------------------------------------
# clique counting


def cliques(n: int, rows, cap: int = 9):
    """Every clique once, as an increasing tuple of vertex indices.

    Raises ValueError if a clique larger than ``cap`` exists; callers treat
    that as a pathological input rather than silently truncating.
    """
    for v in range(n):
        yield (v,)
        # (clique, vertices above its last one that extend it); no recursion
        stack = [((v,), rows[v] >> (v + 1) << (v + 1))]
        while stack:
            base, cand = stack.pop()
            if cand and len(base) == cap:
                raise ValueError(f"clique larger than cap {cap}")
            while cand:
                b = cand & -cand
                cand ^= b
                u = b.bit_length() - 1
                grown = base + (u,)
                yield grown
                more = cand & rows[u]
                if more:
                    stack.append((grown, more))


def clique_counts(n: int, rows, cap: int = 9) -> list[int]:
    """Number of k-vertex cliques for k = 1..cap (index k-1); see cliques."""
    counts = [0] * cap
    for c in cliques(n, rows, cap):
        counts[len(c) - 1] += 1
    return counts
