"""Pure-Python bit-twiddling kernels for the rest of the package.

A query takes ``rows``, where ``rows[i]`` is an integer whose bit ``j`` is
set exactly when vertices ``i`` and ``j`` are adjacent, and a vertex mask:
it is about the subgraph induced on the mask, and answers in the caller's
vertex indices. Python integers make this work for any vertex count.

Everything is deterministic and every verdict is exact. Contractibility is
decided by one function on a vertex mask, `decide`, in three tiers (greedy
deletion, homology of the stuck residue, exact search) and memoized in one
table under two kinds of exact keys: the input rows, and the canonical
forms of the exact search's refuted nodes. A cached verdict is always safe
to reuse. A True verdict of `decide` comes with a deletion order to one
vertex, the first successful branch of the exact search (a cone's order
is empty). Rim tests go through one function, `_simple`, which reads a
table of rim verdicts keyed on the rim mask, one table per decision, in
front of that memo. Canonical forms are memoized in a second table, on
the same keys (a graph's dense rows tuple, its length the vertex count),
so no graph is canonicalized twice while the tables last.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .._smith import homology_of

BACKEND = "pure"

# Key layout: 2-byte vertex count, 1 tag byte (0 = connected, packed
# adjacency; 1 = disconnected, sorted multiset of component keys), payload.
_EMPTY_KEY = (0).to_bytes(2, "big") + b"\x00"

# Contractibility memo. Keys are exact: the dense rows tuple of every
# decided graph (label-dependent, but far cheaper than a canonical form), and
# canonical bytes for the refuted nodes of the exact search (a contractible
# node is searched again for its branch). The canonical-form memo beside it
# maps the same rows tuples to their canonical bytes. The cap guards
# unbounded growth on adversarial workloads; clearing is always sound.
_MEMO_CAP = 1_000_000
_contractible: dict[object, bool] = {}
_canon: dict[tuple[int, ...], bytes] = {}


def clear_caches() -> None:
    _contractible.clear()
    _canon.clear()


def _memo_put(table: dict, key, value) -> None:
    """Store into a memo table, clearing it first when it holds the cap."""
    if len(table) >= _MEMO_CAP:
        table.clear()
    table[key] = value


# ---------------------------------------------------------------------------
# basic mask helpers


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _component(rows, mask: int) -> int:
    """The component of the lowest vertex of ``mask`` in the subgraph
    induced on ``mask``."""
    seen = frontier = mask & -mask
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= rows[v]
        frontier = new & mask & ~seen
        seen |= frontier
    return seen


def connected(rows, mask: int) -> bool:
    """True when the subgraph induced on ``mask`` is non-empty and connected."""
    return mask != 0 and _component(rows, mask) == mask


def subgraph_rows(rows, mask: int) -> tuple[int, ...]:
    """Rows of the induced subgraph on the set bits of ``mask``, reindexed
    densely: a vertex's new index is its rank in ``mask``, the number of set
    bits below it. The rows come back as a tuple, so they can key a memo
    table as they are. A mask of every row returns ``rows`` themselves (as a
    tuple): dense rows reindex to themselves. A mask of one or two vertices
    (the rims of a cycle) is answered without the bit loop."""
    if mask == (1 << len(rows)) - 1:
        return tuple(rows)
    low = mask & -mask
    high = mask ^ low
    if not high & (high - 1):
        if not high:
            return (0,) if mask else ()
        return (2, 1) if rows[low.bit_length() - 1] & high else (0, 0)
    out = []
    rest = mask
    while rest:
        b = rest & -rest
        r = rows[b.bit_length() - 1] & mask
        nr = 0
        while r:
            c = r & -r
            nr |= 1 << (mask & (c - 1)).bit_count()
            r ^= c
        out.append(nr)
        rest ^= b
    return tuple(out)


def _cone(rows, mask: int) -> bool:
    """Is some vertex of ``mask`` adjacent to all the others in it?"""
    rest = mask
    while rest:
        b = rest & -rest
        if rows[b.bit_length() - 1] & mask | b == mask:
            return True
        rest ^= b
    return False


# ---------------------------------------------------------------------------
# canonical form
#
# Individualization-refinement canonical labeling. The canonical form is the
# lexicographically smallest packed upper-triangle adjacency over all leaves
# of the refinement tree. Branch choices depend only on isomorphism-invariant
# data (degree groups, neighbor-count buckets), so the minimum is invariant.
# Exactness matters: these bytes key every memo table in the package.
#
# `canon_bytes` is the one entry: it reindexes the mask densely and looks
# the dense rows up in `_canon`, so a graph reached again under another
# mask or in another `Graph` (the same residue from different moves of an
# equivalence search, the same node on different paths of the exact search)
# costs a reindex (none for a whole graph). A miss runs the refinement
# tree, `_canon_dense`; the components of a disconnected graph go back
# through the entry.


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


def _component_masks(rows, mask: int) -> list[int]:
    masks = []
    while mask:
        masks.append(_component(rows, mask))
        mask ^= masks[-1]
    return masks


def canon_bytes(rows, mask: int) -> bytes:
    """Exact canonical form within ``mask``: equal bytes if and only if
    isomorphic. Memoized on the dense rows of the induced subgraph; a miss
    runs `_canon_dense`."""
    key = subgraph_rows(rows, mask)
    hit = _canon.get(key)
    if hit is None:
        hit = _canon_dense(key)
        _memo_put(_canon, key, hit)
    return hit


def _canon_dense(rows: tuple[int, ...]) -> bytes:
    """The canonical form of the graph on dense ``rows``, unmemoized.

    A disconnected graph is keyed by the sorted multiset of its component
    keys; a connected one by the minimum packed adjacency over the leaves of
    an individualization-refinement tree. Twin vertices (equal neighbor sets,
    with or without a mutual edge) are branch-pruned: swapping twins is an
    automorphism, so their subtrees yield the same minimum.
    """
    n = len(rows)
    if n == 0:
        return _EMPTY_KEY
    header = n.to_bytes(2, "big")
    if n == 1:
        return header + b"\x00"
    mask = (1 << n) - 1
    comps = _component_masks(rows, mask)
    if len(comps) > 1:
        return header + b"\x01" + b"".join(sorted(canon_bytes(rows, c) for c in comps))

    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(rows[v].bit_count(), []).append(v)
    cells = _refine(rows, [tuple(buckets[d]) for d in sorted(buckets)])

    # depth-first over the refinement tree on an explicit stack: the tree is
    # as deep as the graph has vertices. The minimum does not depend on the
    # visiting order.
    best: bytes | None = None
    stack = [cells]
    while stack:
        cells = stack.pop()
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            cand = _pack(rows, [cell[0] for cell in cells])
            if best is None or cand < best:
                best = cand
            continue
        cell = cells[target]
        branched: list[int] = []
        for v in cell:
            if any(
                rows[u] == rows[v] or rows[u] ^ rows[v] == (1 << u) | (1 << v)
                for u in branched
            ):
                continue
            branched.append(v)
            rest = tuple(w for w in cell if w != v)
            stack.append(_refine(rows, cells[:target] + [(v,), rest] + cells[target + 1 :]))

    assert best is not None
    return header + b"\x00" + best


# ---------------------------------------------------------------------------
# contractibility
#
# A graph reduces to one point iff some vertex with a contractible rim (a
# simple point) can be deleted leaving a contractible graph. Three tiers
# decide it, and each tier's answer is exact:
#
# 1. Greedy: delete simple points in (degree, index) order, testing a
#    vertex's rim only when its heap entry comes first. Reaching one vertex
#    proves contractibility, and the deletion order is the first branch of
#    the exact search. A cone needs no pass (see `decide`). A caller that
#    knows which rims are not contractible passes a start mask of the other
#    vertices (the equivalence search, the sphere deletion clause): the
#    pass then tests only rims that may be contractible, and deletes the
#    same vertices in the same order.
# 2. Invariants: simple-point deletions preserve homology (Ivashchenko,
#    Discrete Math. 126, 1994) and a contractible graph has the homology of
#    a point, so a stuck residue whose Euler characteristic is not 1, or
#    whose reduced integer homology is nonzero, refutes contractibility.
#    The characteristic is summed over the clique stream; only a residue
#    where it is 1 lists its cliques for the package's one homology engine,
#    `homology_of`.
# 3. Exact search: greedy deletion can stall on contractible inputs
#    (Benedetti & Lutz, Exp. Math. 23, 2014), so what survives tier 2 gets
#    the backtracking search over every simple point. Its first successful
#    branch is the deletion order of a True verdict.
#
# `decide` runs the tiers on masks of fixed rows (the residue and every
# search node are masks), and is the one decision: `contractible_on`, the
# one memoized entry, asks it about any induced subgraph on dense rows.
#
# Every rim test is `_simple`. It looks the rim mask up in a table of rim
# verdicts, exact while the rows stay fixed, whatever pass or search node
# asks: one per `decide` call, shared by all its tiers, or one the caller
# owns and shares between decisions on the same rows (the n deletion
# clauses of a sphere test, whose table `classify` seeds with verdicts it
# already knows). A miss goes to `contractible_on`, which answers a cone at
# once and otherwise decides the rim densely reindexed, so the rows-keyed
# memo behind the table still hits when a rim recurs under a different
# mask: translated copies of a rim in `reduce`, equal rims of different
# search states in `homotopy_equivalent`. Canonical forms key only the
# refuted nodes of the exact search; a node reached on several paths reads
# its form from `_canon`.


def contractible_on(rows, mask: int) -> bool:
    """Exact decision: do simple-point deletions reduce the subgraph induced
    on ``mask`` to a point? A cone is answered at once; anything else is
    decided on its dense rows, which key the memo."""
    if _cone(rows, mask):
        return True
    dense = subgraph_rows(rows, mask)
    hit = _contractible.get(dense)
    if hit is None:
        hit = decide(dense, (1 << len(dense)) - 1)[0]
        _memo_put(_contractible, dense, hit)
    return hit


def decide(
    rows, alive: int, rims: dict[int, bool] | None = None, start: int | None = None
) -> tuple[bool, int, list[int]]:
    """The verdict for the subgraph induced on ``alive`` of ``rows``,
    unmemoized at the top, the tier (1-3) that reached it, and a deletion
    order of vertices of ``alive``. A True verdict's order, except a
    cone's, reduces the subgraph to one vertex: the greedy pass's at tier
    1, the exact search's first successful branch at tier 3. A False
    verdict's order is the greedy deletions down to the stuck residue.

    A cone (some vertex adjacent to all others) is decided by tier 1 without
    a pass, so its order is empty: every other vertex's rim is a cone too,
    so greedy deletion always reaches a point. Skipping the pass keeps
    cliques from nesting one rim test per clique vertex. The empty and the
    disconnected graphs are refuted by tier 2 before the pass: their reduced
    homology is nonzero in degree -1 or 0. All tiers run on ``rows`` and
    share one rim table, ``rims`` or a fresh one (see `_simple`).

    ``start`` goes to tier 1's pass alone (see `_greedy`): the caller
    vouches that the rim among ``alive`` of every other vertex of ``alive``
    is not contractible. The verdict, tier and order are the same as
    without it; tier 3 searches every vertex whatever ``start`` holds.
    """
    if _cone(rows, alive):
        return True, 1, []
    if not connected(rows, alive):
        return False, 2, []
    if rims is None:
        rims = {}
    rest, order = _greedy(rows, alive, rims=rims, start=start)
    if not rest & (rest - 1):
        return True, 1, order
    if not _acyclic(rows, rest):
        return False, 2, order
    branch = _exact(rows, alive, rims)
    if branch is None:
        return False, 3, order
    return True, 3, branch


def _simple(rows, v: int, alive: int, rims: dict[int, bool]) -> bool:
    """Is the rim of ``v`` among the ``alive`` vertices contractible? The
    verdict is read from, or stored into, ``rims`` under the rim mask."""
    rim = rows[v] & alive
    hit = rims.get(rim)
    if hit is None:
        hit = rims[rim] = contractible_on(rows, rim)
    return hit


def _greedy(
    rows, alive: int, rims: dict[int, bool] | None = None, start: int | None = None
) -> tuple[int, list[int]]:
    """Tier 1: the mask of vertices left when greedy deletion from
    ``alive`` stalls, and the deletion order.

    Each deleted vertex is the simple one of minimum degree among the
    surviving vertices; equal degrees go to the smaller index (on the rows
    of a `Graph`, the smaller label). That vertex is found lazily: each
    vertex has a heap entry keyed ``(degree, v)``, and its rim is tested
    (see `_simple`; ``rims`` is a fresh table when None) only when the
    entry pops. A vertex that is not simple gets a new entry only when a
    neighbor's deletion changes its rim, so every smaller key was found
    not simple.

    The heap starts with the vertices of ``start`` (all of ``alive`` when
    None). The caller vouches that every other vertex of ``alive`` has a
    rim that is not contractible, so its first entry would pop only to
    fail its test, or go stale when a neighbor's deletion pushed a new one;
    leaving it out changes neither the order nor the residue, only the rim
    tests run.
    """
    if rims is None:
        rims = {}
    begin = alive if start is None else start
    heap = [((rows[v] & alive).bit_count(), v) for v in _bits(begin)]
    heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heappop(heap)
        # stale: v is gone, or a newer entry holds its lower degree
        if not alive >> v & 1 or (rows[v] & alive).bit_count() != degree:
            continue
        if not _simple(rows, v, alive, rims):
            continue
        order.append(v)
        alive ^= 1 << v
        for u in _bits(rows[v] & alive):
            heappush(heap, ((rows[u] & alive).bit_count(), u))
    return alive, order


def _acyclic(rows, mask: int) -> bool:
    """Tier 2: does the clique complex within ``mask`` have the integer
    homology of a point?

    The Euler characteristic is summed over the clique stream, so a residue
    whose characteristic is not 1 is refuted without holding its cliques.
    Only a characteristic of 1 walks the cliques again, to list them for
    `homology_of`.
    """
    cap = mask.bit_count()
    if sum(1 if len(c) % 2 else -1 for c in cliques(rows, mask, cap)) != 1:
        return False
    betti_q, _, torsion = homology_of(cliques_by_size(rows, mask, cap))
    return betti_q[0] == 1 and not any(betti_q[1:]) and not any(torsion)


def _exact(rows, alive: int, rims: dict[int, bool]) -> list[int] | None:
    """Tier 3: backtracking over every simple point, on an explicit stack,
    from ``alive``. Returns the first successful branch as a deletion order
    down to one vertex, or None. Every rim test, at a node or in a child's
    pass, reads ``rims``: a rim verdict on fixed rows is node-independent.

    A node is a mask of ``rows`` whose greedy pass stalls; its children
    delete its simple points in greedy order. A child that the greedy pass
    reduces to a point proves its parent: the vertices deleted from the
    root down to the child, then its greedy order, are the branch. Any
    other child becomes a node unless the memo holds its canonical form,
    which it does for refuted nodes only: a contractible node has to be
    searched again to give up its branch. Children skip tier 2: deleting a
    simple point preserves homology, so every node has the homology of the
    root.
    """
    key = canon_bytes(rows, alive)
    if key in _contractible:
        return None
    # (canonical key, vertex deleted from the parent node, mask, candidates)
    stack = [(key, -1, alive, iter(_greedy_order(rows, alive)))]
    while stack:
        key, _, node, candidates = stack[-1]
        for v in candidates:
            if not _simple(rows, v, node, rims):
                continue
            child = node ^ (1 << v)
            rest, order = _greedy(rows, child, rims=rims)
            if not rest & (rest - 1):
                return [frame[1] for frame in stack[1:]] + [v] + order
            ckey = canon_bytes(rows, child)
            if ckey not in _contractible:
                stack.append((ckey, v, child, iter(_greedy_order(rows, child))))
                break
        else:
            _memo_put(_contractible, key, False)
            stack.pop()
    return None


def _greedy_order(rows, mask: int) -> list[int]:
    return sorted(_bits(mask), key=lambda v: ((rows[v] & mask).bit_count(), v))


# ---------------------------------------------------------------------------
# clique enumeration


def cliques(rows, mask: int, cap: int):
    """Every clique within ``mask`` once, as an increasing index tuple.

    Raises ValueError if a clique larger than ``cap`` exists; callers treat
    that as a pathological input rather than silently truncating.
    """
    for v in _bits(mask):
        yield (v,)
        # (clique, vertices above its last one that extend it); no recursion
        stack = [((v,), rows[v] & (mask >> (v + 1) << (v + 1)))]
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


def cliques_by_size(rows, mask: int, cap: int) -> list[list[tuple[int, ...]]]:
    """Every clique (see `cliques`) grouped by size: index k-1 holds the
    k-vertex cliques, and the list ends at the clique number."""
    by_size: list[list[tuple[int, ...]]] = []
    for c in cliques(rows, mask, cap):
        # a clique comes after its prefix, so sizes grow one at a time
        if len(c) > len(by_size):
            by_size.append([])
        by_size[len(c) - 1].append(c)
    return by_size


def alternating_sum(counts) -> int:
    """``c0 - c1 + c2 - ...``; of clique counts, the Euler characteristic."""
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))
