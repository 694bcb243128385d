"""Simple points and edges, contractible transformations, reduction.

A transformation is accepted only when its contractibility precondition
holds, so every replayed trace is a proof object: accepted steps preserve
the Euler characteristic and homology of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, zip_longest
from typing import Any, Iterator, Optional, Union

from . import _kernels as kernels
from ._kernels._pure import _bits, _greedy, subgraph_rows
from .graph import Graph, _check_label, _edge_rim_mask, _induced_mask, _sorted_graph, canonical_key


class TransformationError(ValueError):
    """A contractible-transformation precondition failed."""


# ---------------------------------------------------------------------------
# steps and traces


@dataclass(frozen=True)
class DeletePoint:
    v: str


@dataclass(frozen=True)
class AttachPoint:
    v: str
    rim: frozenset[str]


@dataclass(frozen=True)
class DeleteEdge:
    u: str
    v: str


@dataclass(frozen=True)
class AttachEdge:
    u: str
    v: str


Step = Union[DeletePoint, AttachPoint, DeleteEdge, AttachEdge]


@dataclass(frozen=True)
class HomotopyTrace:
    """A replayable sequence of contractible transformations."""

    steps: tuple[Step, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __add__(self, other: "HomotopyTrace") -> "HomotopyTrace":
        return HomotopyTrace(self.steps + other.steps)

    def to_obj(self) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for s in self.steps:
            if isinstance(s, DeletePoint):
                out.append({"op": "delete-point", "v": s.v})
            elif isinstance(s, AttachPoint):
                out.append({"op": "attach-point", "v": s.v, "rim": sorted(s.rim)})
            elif isinstance(s, DeleteEdge):
                out.append({"op": "delete-edge", "u": s.u, "v": s.v})
            else:
                out.append({"op": "attach-edge", "u": s.u, "v": s.v})
        return out

    @staticmethod
    def from_obj(obj: Any) -> "HomotopyTrace":
        if not isinstance(obj, list):
            raise TransformationError("trace must be an array of step objects")
        steps: list[Step] = []
        for i, item in enumerate(obj):
            if not isinstance(item, dict) or "op" not in item:
                raise TransformationError(f"step {i}: not a step object")
            op = item["op"]
            try:
                if op == "delete-point":
                    steps.append(DeletePoint(_label(item["v"])))
                elif op == "attach-point":
                    if not isinstance(item["rim"], list):
                        raise TransformationError(f"step {i}: rim must be an array of labels")
                    rim_labels = frozenset(_label(u) for u in item["rim"])
                    steps.append(AttachPoint(_label(item["v"]), rim_labels))
                elif op == "delete-edge":
                    steps.append(DeleteEdge(_label(item["u"]), _label(item["v"])))
                elif op == "attach-edge":
                    steps.append(AttachEdge(_label(item["u"]), _label(item["v"])))
                else:
                    raise TransformationError(f"step {i}: unknown op {op!r}")
            except KeyError as exc:
                raise TransformationError(f"step {i}: missing field {exc}") from exc
        return HomotopyTrace(tuple(steps))


def _label(lab: Any) -> str:
    """A vertex label read from a trace; anything but a string is rejected
    with the same `GraphError` as in a graph file."""
    _check_label(lab)
    return lab


# ---------------------------------------------------------------------------
# simplicity tests


def is_simple_point(g: Graph, v: str) -> bool:
    """True when the rim of ``v`` is contractible."""
    return kernels.contractible_on(g._rows, g._rows[g._require(v)])


def is_simple_edge(g: Graph, u: str, v: str) -> bool:
    """True when the common-neighbor rim of the edge is contractible."""
    return kernels.contractible_on(g._rows, _edge_rim_mask(g, u, v))


def is_contractible(g: Graph, return_trace: bool = False):
    """Exact decision: can simple-point deletions reduce ``g`` to one point?

    The kernel decides in three exact tiers. A greedy pass deletes simple
    points in (degree, label) order and answers True if it reaches
    one vertex. Otherwise the stuck residue's Euler characteristic and
    integer homology are checked: deletions preserve homology, so anything
    but the homology of a point answers False. Only what remains gets the full
    backtracking search. All tiers share one table of rim verdicts.
    `contractible_on` memoizes verdicts on the exact adjacency rows; the
    search keeps its refuted nodes as vertex masks and computes no
    canonical form. The empty graph is not contractible.

    With ``return_trace=True`` returns ``(bool, HomotopyTrace | None)`` where
    the trace replays the witnessing deletions: the greedy order when the
    greedy pass succeeds, else the first successful branch of the search.
    That is one unmemoized `decide` call, which carries the order; only a
    cone, which `decide` answers without a pass, gets its greedy pass here.
    """
    full = (1 << g.order) - 1
    if not return_trace:
        return kernels.contractible_on(g._rows, full)
    verdict, _, order = kernels.decide(g._rows, full)
    if not verdict:
        return False, None
    if not order:
        order = _greedy(g._rows, full)[1]
    return True, HomotopyTrace(tuple(DeletePoint(g.vertices[i]) for i in order))


# ---------------------------------------------------------------------------
# applying transformations


class _Replay:
    """A graph under replay, edited in place: rows, labels by index and a
    copy of the label index (graphs may share theirs). A deleted vertex
    keeps its index, with no label and no bit in any row; a new one is next."""

    __slots__ = ("rows", "labels", "index")

    def __init__(self, g: Graph):
        self.rows = list(g._rows)
        self.labels: list[Optional[str]] = list(g._labels)
        self.index = dict(g._index)

    def apply(self, step: Step) -> Step:
        """Apply ``step``, validating its precondition; return its inverse."""
        rows, index = self.rows, self.index
        if isinstance(step, DeletePoint):
            i = index.get(step.v)
            if i is None:
                raise TransformationError(f"delete-point {step.v!r}: vertex not present")
            rim = rows[i]
            if not kernels.contractible_on(rows, rim):
                raise TransformationError(f"delete-point {step.v!r}: rim is not contractible")
            for j in _bits(rim):
                rows[j] ^= 1 << i
            rows[i] = 0
            self.labels[i] = None
            del index[step.v]
            return AttachPoint(step.v, frozenset(self.labels[j] for j in _bits(rim)))

        if isinstance(step, AttachPoint):
            if step.v in index:
                raise TransformationError(f"attach-point {step.v!r}: label already present")
            missing = sorted(w for w in step.rim if w not in index)
            if missing:
                raise TransformationError(
                    f"attach-point {step.v!r}: unknown rim vertices {missing}"
                )
            rim = sum(1 << index[w] for w in step.rim)
            if not kernels.contractible_on(rows, rim):
                raise TransformationError(
                    f"attach-point {step.v!r}: rim set does not induce a contractible subgraph"
                )
            _check_label(step.v)
            k = index[step.v] = len(rows)
            for j in _bits(rim):
                rows[j] |= 1 << k
            rows.append(rim)
            self.labels.append(step.v)
            return DeletePoint(step.v)

        if isinstance(step, DeleteEdge):
            iu, iv = index.get(step.u), index.get(step.v)
            if iu is None or iv is None or not rows[iu] >> iv & 1:
                raise TransformationError(f"delete-edge ({step.u!r}, {step.v!r}): not an edge")
            if not kernels.contractible_on(rows, rows[iu] & rows[iv]):
                raise TransformationError(
                    f"delete-edge ({step.u!r}, {step.v!r}): edge rim is not contractible"
                )
            inverse: Step = AttachEdge(step.u, step.v)

        elif isinstance(step, AttachEdge):
            for w in (step.u, step.v):
                if w not in index:
                    raise TransformationError(f"attach-edge: vertex {w!r} not present")
            if step.u == step.v:
                raise TransformationError("attach-edge: endpoints coincide")
            iu, iv = index[step.u], index[step.v]
            if rows[iu] >> iv & 1:
                raise TransformationError(f"attach-edge ({step.u!r}, {step.v!r}): already an edge")
            if not kernels.contractible_on(rows, rows[iu] & rows[iv]):
                raise TransformationError(
                    f"attach-edge ({step.u!r}, {step.v!r}): "
                    "common-neighbor rim is not contractible"
                )
            inverse = DeleteEdge(step.u, step.v)

        else:
            raise TransformationError(f"unknown step {step!r}")
        rows[iu] ^= 1 << iv
        rows[iv] ^= 1 << iu
        return inverse

    def graph(self) -> Graph:
        """The graph as it now stands."""
        alive = sum(1 << i for i in self.index.values())
        labels = tuple(lab for lab in self.labels if lab is not None)
        return Graph(labels, subgraph_rows(self.rows, alive))


def apply_transformation(g: Graph, step: Step) -> Graph:
    """Apply one contractible transformation, validating its precondition."""
    state = _Replay(g)
    state.apply(step)
    return state.graph()


def _replay(g: Graph, trace: HomotopyTrace) -> tuple[_Replay, list[Step]]:
    """The state after replaying ``trace`` on ``g``, and each step's inverse
    in trace order; a failing step is named by its position."""
    state, inverses = _Replay(g), []
    for i, step in enumerate(trace):
        try:
            inverses.append(state.apply(step))
        except TransformationError as exc:
            raise TransformationError(f"step {i}: {exc}") from exc
    return state, inverses


def apply_trace(g: Graph, trace: HomotopyTrace) -> Graph:
    """Replay a trace, validating every step at its moment. The steps edit
    one set of rows and the result is built once, at the end."""
    return _replay(g, trace)[0].graph()


def invert_trace(source: Graph, trace: HomotopyTrace) -> HomotopyTrace:
    """Trace running the transformation backwards (target back to source),
    read off one replay of ``trace``; it fails as `apply_trace` does."""
    return HomotopyTrace(tuple(reversed(_replay(source, trace)[1])))


# ---------------------------------------------------------------------------
# greedy reduction


def reduce(g: Graph) -> tuple[Graph, HomotopyTrace]:
    """Delete simple points greedily until none remain.

    Deterministic: each round removes the simple vertex with the smallest
    degree, ties broken by label order. The residue is homotopy equivalent
    to the input by construction. This is the kernel's greedy pass
    (`_pure._greedy`) on the input's rows, whose index order is label order.
    """
    return _reduce(g, None)


def _reduce(g: Graph, start: Optional[int]) -> tuple[Graph, HomotopyTrace]:
    """`reduce`, with the pass's start mask (see `_pure._greedy`): the
    caller vouches that every vertex outside ``start`` has a rim that is
    not contractible. None starts from every vertex."""
    alive, order = _greedy(g._rows, (1 << g.order) - 1, start=start)
    steps = tuple(DeletePoint(g._labels[i]) for i in order)
    return _induced_mask(g, alive), HomotopyTrace(steps)


# ---------------------------------------------------------------------------
# homotopy equivalence (semi-decision)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the equivalence semi-decision.

    ``Equivalent`` carries a pair of traces replaying the two inputs to
    isomorphic graphs. ``Distinguished`` names the invariant that separates
    them. ``Unknown`` means the bounded search gave up.
    """

    status: str  # "Equivalent" | "Distinguished" | "Unknown"
    traces: Optional[tuple[HomotopyTrace, HomotopyTrace]] = None
    invariant: Optional[str] = None
    values: Optional[tuple] = None


def _search_moves(g: Graph) -> Iterator[tuple[Step, Graph, int]]:
    """Neighbor states for the bounded search, which expands only residues
    of `reduce`: deletions and attachments of simple edges. A residue has
    no simple point to delete. Point attachments are excluded: their
    rim-set choice is unbounded, and the edge moves already connect the
    graphs this search is used on.

    Each move comes with the mask of the vertices whose rims it changed:
    flipping (i, j) changes the rims of i, j and their common neighbors
    only. Every other vertex keeps the rim it had in the residue ``g``,
    where the pass that stalled found it not contractible, so the pass
    that reduces the new state may start from that mask (`_reduce`).
    """
    rows, labels = g._rows, g._labels
    for i, j in combinations(range(g.order), 2):
        # an empty common rim is never contractible
        common = rows[i] & rows[j]
        if common and kernels.contractible_on(rows, common):
            step = DeleteEdge if rows[i] >> j & 1 else AttachEdge
            flipped = list(rows)
            flipped[i] ^= 1 << j
            flipped[j] ^= 1 << i
            # same labels, so the same index dict: no graph edits its own
            nxt = _sorted_graph(labels, tuple(flipped), g._index)
            yield step(labels[i], labels[j]), nxt, common | 1 << i | 1 << j


def _bidirectional_connect(
    a: Graph, b: Graph, budget: int
) -> Optional[tuple[HomotopyTrace, HomotopyTrace]]:
    """Meet-in-the-middle search over contractible transformations.

    Every generated state is greedily reduced before it enters a frontier,
    which collapses whole families of intermediate states onto their
    residues; the reduction steps become part of the witness path, so the
    restriction costs completeness only, never soundness.

    ``a`` and ``b`` must be residues of `reduce`, so every expanded state
    is one. Its stalled pass found every rim not contractible, so the pass
    on a move's result starts from the vertices whose rims the move
    changed (see `_search_moves`); it deletes what a pass from every
    vertex deletes, in the same order, and the witness is the same.
    """
    sides = [
        {canonical_key(a): (a, [])},
        {canonical_key(b): (b, [])},
    ]
    frontiers = [list(sides[0].items()), list(sides[1].items())]
    spent = 0
    while spent < budget and (frontiers[0] or frontiers[1]):
        side = 0 if (frontiers[0] and len(frontiers[0]) <= len(frontiers[1])) or not frontiers[1] else 1
        new_frontier = []
        for key, (graph, path) in frontiers[side]:
            if spent >= budget:
                break
            spent += 1
            for step, nxt, changed in _search_moves(graph):
                nxt_res, red = _reduce(nxt, changed)
                nkey = canonical_key(nxt_res)
                if nkey in sides[side]:
                    continue
                sides[side][nkey] = (nxt_res, path + [step] + list(red.steps))
                new_frontier.append((nkey, sides[side][nkey]))
                if nkey in sides[1 - side]:
                    here = sides[side][nkey][1]
                    there = sides[1 - side][nkey][1]
                    fwd = here if side == 0 else there
                    bwd = there if side == 0 else here
                    return HomotopyTrace(tuple(fwd)), HomotopyTrace(tuple(bwd))
        frontiers[side] = new_frontier
    return None


def homotopy_equivalent(g: Graph, h: Graph, budget: int = 4000) -> EquivalenceVerdict:
    """Semi-decide homotopy equivalence.

    Equivalent when the greedy residues are isomorphic or a bounded
    bidirectional search connects them: it expands residues by simple-edge
    moves and reduces each result (budget counts node expansions);
    Distinguished when the Euler characteristic or a Betti number differs;
    Unknown otherwise. An Equivalent verdict always carries replayable
    witness traces.
    """
    from .invariants import _euler_and_homology, same_profile

    red_g, trace_g = reduce(g)
    red_h, trace_h = reduce(h)
    if canonical_key(red_g) == canonical_key(red_h):
        return EquivalenceVerdict("Equivalent", traces=(trace_g, trace_h))

    # residues carry the same invariants as the inputs
    (eg, pg), (eh, ph) = _euler_and_homology(red_g), _euler_and_homology(red_h)
    if eg != eh:
        return EquivalenceVerdict("Distinguished", invariant="euler", values=(eg, eh))
    if not same_profile(pg, ph):
        for k, (bg, bh) in enumerate(zip_longest(pg.betti_q, ph.betti_q, fillvalue=0)):
            if bg != bh:
                return EquivalenceVerdict(
                    "Distinguished", invariant=f"betti_q[{k}]", values=(bg, bh)
                )
        return EquivalenceVerdict(
            "Distinguished", invariant="homology", values=(pg.describe(), ph.describe())
        )

    found = _bidirectional_connect(red_g, red_h, budget)
    if found is not None:
        fwd, bwd = found
        return EquivalenceVerdict("Equivalent", traces=(trace_g + fwd, trace_h + bwd))
    return EquivalenceVerdict("Unknown")
