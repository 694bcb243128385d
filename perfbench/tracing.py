"""Per-layer call tracing from outside the package.

`Tracer.install` replaces each listed public function with a wrapper in
every loaded `digitopo` module that holds it, so calls through names bound
by `from .graph import ...` (or `reduce as reduce_graph`) and recursion
through module globals are all seen. A wrapper records a span (id, parent
id, task, name, start, end) while tracing is on; spans stay in memory, up to
a cap, and are written out when the run ends. Metrics are folded in as the
calls happen, so the cap bounds memory and never changes a metric.

A function's time is the summed duration of its outermost spans (recursive
calls nest inside them); self time subtracts the time covered by direct
child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); the span name's prefix is the layer
SPANNED = (
    ("digitopo.digitizer", "digitize_reduce", "digitizer.digitize_reduce"),
    ("digitopo.digitizer", "cubical_model", "digitizer.cubical_model"),
    ("digitopo.digitizer", "model_graph", "digitizer.model_graph"),
    ("digitopo.homotopy", "reduce", "homotopy.reduce"),
    ("digitopo.homotopy", "is_simple_point", "homotopy.is_simple_point"),
    ("digitopo.homotopy", "apply_trace", "homotopy.apply_trace"),
    ("digitopo.homotopy", "invert_trace", "homotopy.invert_trace"),
    ("digitopo.homotopy", "homotopy_equivalent", "homotopy.homotopy_equivalent"),
    ("digitopo._kernels", "is_contractible", "kernels.is_contractible"),
    ("digitopo._kernels", "clique_counts", "kernels.clique_counts"),
    ("digitopo._kernels._pure", "is_contractible", "pure.is_contractible"),
    ("digitopo._kernels._pure", "canon_bytes", "pure.canon_bytes"),
    ("digitopo.graph", "induced_subgraph", "graph.induced_subgraph"),
    ("digitopo.graph", "build_graph", "graph.build_graph"),
    ("digitopo.graph", "rim", "graph.rim"),
    ("digitopo.graph", "canonical_key", "graph.canonical_key"),
    ("digitopo.classify", "classify", "classify.classify"),
    ("digitopo.classify", "surface_dimension", "classify.surface_dimension"),
    ("digitopo.classify", "is_n_sphere", "classify.is_n_sphere"),
    ("digitopo.classify", "is_n_manifold", "classify.is_n_manifold"),
    ("digitopo.transform", "r_transform", "transform.r_transform"),
    ("digitopo.invariants", "homology", "invariants.homology"),
    ("digitopo.invariants", "euler_characteristic", "invariants.euler_characteristic"),
    ("digitopo._smith", "smith_diagonal", "smith.smith_diagonal"),
    ("digitopo._smith", "gf2_rank", "smith.gf2_rank"),
    ("digitopo.covers", "validate_lcl", "covers.validate_lcl"),
    ("digitopo.covers", "nerve", "covers.nerve"),
    ("digitopo.covers", "intersect_cells", "covers.intersect_cells"),
    ("digitopo.catalog", "validate", "catalog.validate"),
)
# Called hundreds of thousands of times per task, one level per expression
# node: counted (top-level calls only), never spanned.
COUNTED = (("digitopo.digitizer", "eval_expr", "digitizer.eval_expr"),)

# per-layer metric -> unit; values are per task unless the unit says otherwise
PER_LAYER = {
    "digitizer.cubical_model_s": "s/task",
    "digitizer.eval_calls": "count/task",
    "digitizer.model_graph_s": "s/task",
    "homotopy.reduce_s": "s/task",
    "homotopy.reduce_self_s": "s/task",
    "homotopy.simple_point_tests": "count/task",
    "homotopy.trace_steps": "count/task",
    "homotopy.apply_trace_s": "s/task",
    "homotopy.equivalent_s": "s/task",
    "homotopy.equivalent_reduce_calls": "count/task",
    "kernels.contractible_calls": "count/task",
    "kernels.contractible_s": "s/task",
    "kernels.exact_nodes": "count/task",
    "kernels.max_exact_n": "vertices",
    "kernels.canon_calls": "count/task",
    "kernels.canon_distinct": "count/task",
    "kernels.canon_useful_ratio": "ratio",
    "kernels.canon_s": "s/task",
    "kernels.memo_entries": "count/task",
    "kernels.clique_calls": "count/task",
    "kernels.clique_s": "s/task",
    "graph.induced_subgraph_calls": "count/task",
    "graph.induced_subgraph_s": "s/task",
    "graph.build_graph_calls": "count/task",
    "graph.build_graph_s": "s/task",
    "graph.rim_calls": "count/task",
    "graph.canonical_key_calls": "count/task",
    "classify.classify_s": "s/task",
    "classify.surface_dimension_calls": "count/task",
    "classify.deletion_checks": "count/task",
    "classify.memo_entries": "count/task",
    "transform.r_transform_calls": "count/task",
    "transform.r_transform_s": "s/task",
    "invariants.homology_s": "s/task",
    "invariants.euler_s": "s/task",
    "smith.diagonal_s": "s/task",
    "smith.columns": "count/task",
    "smith.gf2_rank_s": "s/task",
    "covers.validate_lcl_s": "s/task",
    "covers.nerve_s": "s/task",
    "covers.intersect_calls": "count/task",
    "catalog.validate_s": "s/task",
    "trace.overhead_tasks_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self, span_cap: int = 300_000):
        self.on = False
        self.task = -1
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 1
        self._stack: list[list] = []  # open spans: [span id, name, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.max_exact_n = 0
        self._canon_seen: set[bytes] = set()
        self.tasks = 0
        self._memo_probe = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function. One the package no longer has is
        skipped, and its metrics read 0, so a refactor never stops a run."""
        mods = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "digitopo"]
        pre, post = self._hooks()
        for modname, attr, name in SPANNED:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is not None:
                self._replace(mods, orig, self._spanned(name, orig, pre.get(name), post.get(name)))
        for modname, attr, name in COUNTED:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is not None:
                self._replace(mods, orig, self._counted(name, orig))
        pure = sys.modules.get("digitopo._kernels._pure")
        cls = sys.modules.get("digitopo.classify")

        def size(mod, *tables) -> int:
            return sum(len(getattr(mod, t, ())) for t in tables)

        self._memo_probe = lambda: (
            size(pure, "_contractible"),
            size(cls, "_surface_dim_memo", "_sphere_memo"),
        )

    @staticmethod
    def _replace(mods, orig, wrapper) -> None:
        wrapper.__wrapped__ = orig
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)

    def _counted(self, name: str, fn):
        depth = self._depth
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.on and not depth[name]:
                calls[name] += 1
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1

        return wrapper

    def _spanned(self, name: str, fn, pre, post):
        stack = self._stack
        depth = self._depth
        calls = self.calls
        times = self.outer_time
        self_times = self.self_time
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[name] += 1
            parent = stack[-1] if stack else None
            if pre is not None:
                pre(args, parent)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, name, 0.0]
            outer = not depth[name]
            depth[name] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                if outer:
                    times[name] += dur
                self_times[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(spans) < self.span_cap:
                    spans.append((sid, parent[0] if parent else 0, self.task, name, start, end))
                else:
                    self.dropped += 1
            if post is not None:
                post(result)
            return result

        return wrapper

    def _hooks(self):
        """Counters read from a call's arguments (pre) or its result (post)."""
        extra = self.extra
        depth = self._depth
        seen = self._canon_seen

        def pure_contractible(args, parent):
            if args[0] > self.max_exact_n:
                self.max_exact_n = args[0]

        def kernel_contractible(args, parent):
            if parent is not None and parent[1].startswith("classify."):
                extra["classify.deletion_checks"] += 1

        def reduce_(args, parent):
            if depth["homotopy.homotopy_equivalent"]:
                extra["homotopy.equivalent_reduce_calls"] += 1

        def smith(args, parent):
            extra["smith.columns"] += len(args[0])

        def reduce_steps(result):
            extra["homotopy.trace_steps"] += len(result[1])

        pre = {
            "pure.is_contractible": pure_contractible,
            "kernels.is_contractible": kernel_contractible,
            "homotopy.reduce": reduce_,
            "smith.smith_diagonal": smith,
        }
        return pre, {"pure.canon_bytes": seen.add, "homotopy.reduce": reduce_steps}

    # -- tasks ----------------------------------------------------------------

    def begin(self, task: int) -> None:
        self.task = task
        self.on = True

    def end(self) -> None:
        """Stop tracing and fold the task's end-of-task state into the totals."""
        self.on = False
        self.tasks += 1
        kernel_memo, classify_memo = self._memo_probe()
        self.extra["kernels.memo_entries"] += kernel_memo
        self.extra["classify.memo_entries"] += classify_memo
        self.extra["kernels.canon_distinct"] += len(self._canon_seen)
        self._canon_seen.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        k = max(self.tasks, 1)
        c, t, x = self.calls, self.outer_time, self.extra
        canon_calls = c["pure.canon_bytes"]
        per_task = {
            "digitizer.cubical_model_s": t["digitizer.cubical_model"],
            "digitizer.eval_calls": c["digitizer.eval_expr"],
            "digitizer.model_graph_s": t["digitizer.model_graph"],
            "homotopy.reduce_s": t["homotopy.reduce"],
            "homotopy.reduce_self_s": self.self_time["homotopy.reduce"],
            "homotopy.simple_point_tests": c["homotopy.is_simple_point"],
            "homotopy.trace_steps": x["homotopy.trace_steps"],
            "homotopy.apply_trace_s": t["homotopy.apply_trace"],
            "homotopy.equivalent_s": t["homotopy.homotopy_equivalent"],
            "homotopy.equivalent_reduce_calls": x["homotopy.equivalent_reduce_calls"],
            "kernels.contractible_calls": c["kernels.is_contractible"],
            "kernels.contractible_s": t["kernels.is_contractible"],
            "kernels.exact_nodes": c["pure.is_contractible"],
            "kernels.canon_calls": canon_calls,
            "kernels.canon_distinct": x["kernels.canon_distinct"],
            "kernels.canon_s": t["pure.canon_bytes"],
            "kernels.memo_entries": x["kernels.memo_entries"],
            "kernels.clique_calls": c["kernels.clique_counts"],
            "kernels.clique_s": t["kernels.clique_counts"],
            "graph.induced_subgraph_calls": c["graph.induced_subgraph"],
            "graph.induced_subgraph_s": t["graph.induced_subgraph"],
            "graph.build_graph_calls": c["graph.build_graph"],
            "graph.build_graph_s": t["graph.build_graph"],
            "graph.rim_calls": c["graph.rim"],
            "graph.canonical_key_calls": c["graph.canonical_key"],
            "classify.classify_s": t["classify.classify"],
            "classify.surface_dimension_calls": c["classify.surface_dimension"],
            "classify.deletion_checks": x["classify.deletion_checks"],
            "classify.memo_entries": x["classify.memo_entries"],
            "transform.r_transform_calls": c["transform.r_transform"],
            "transform.r_transform_s": t["transform.r_transform"],
            "invariants.homology_s": t["invariants.homology"],
            "invariants.euler_s": t["invariants.euler_characteristic"],
            "smith.diagonal_s": t["smith.smith_diagonal"],
            "smith.columns": x["smith.columns"],
            "smith.gf2_rank_s": t["smith.gf2_rank"],
            "covers.validate_lcl_s": t["covers.validate_lcl"],
            "covers.nerve_s": t["covers.nerve"],
            "covers.intersect_calls": c["covers.intersect_cells"],
            "catalog.validate_s": t["catalog.validate"],
        }
        out = {name: v / k for name, v in per_task.items()}
        out["kernels.max_exact_n"] = float(self.max_exact_n)
        out["kernels.canon_useful_ratio"] = (
            x["kernels.canon_distinct"] / canon_calls if canon_calls else 1.0
        )
        return out

    def write_spans(self, path, header: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(f"# {header}; {len(self.spans)} spans kept, {self.dropped} dropped\n")
            fh.write("id,parent,task,name,start,end\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f}\n")
