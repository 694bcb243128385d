"""Cubical models, intersection graphs, and the digitize-reduce pipeline."""

import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import labelled_model_graph
from digitopo.covers import BoxCell
from digitopo.digitizer import (
    MAX_CUBES,
    MAX_DEGREE,
    MAX_EXPR_DEPTH,
    CubicalModel,
    ShapeError,
    ShapeSpec,
    _compile,
    _const_denominators,
    cubical_model,
    digitize_reduce,
    load_shape,
    mask_csv,
    model_graph,
    parse_expr,
    shape_annulus,
    shape_circle,
    shape_disk,
    shape_segment,
    shape_sphere,
)
from digitopo.homotopy import homotopy_equivalent
from digitopo.invariants import euler_characteristic, same_profile


def eval_expr(expr, point):
    """A parsed expression's value at ``point``, in `Fraction` arithmetic:
    the reference evaluator for `_compile`'s integer streams."""
    op = expr[0]
    if op == "const":
        return expr[1]
    if op == "var":
        return point[expr[1]]
    args = [eval_expr(a, point) for a in expr[1:]]
    if op == "+":
        return sum(args, Fraction(0))
    if op == "*":
        return math.prod(args, start=Fraction(1))
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if op == "abs":
        return abs(args[0])
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    assert op == "square", op
    return args[0] * args[0]


WINDOW2 = BoxCell.make([-2, -2], [2, 2])
WINDOW3 = BoxCell.make([-2, -2, -2], [2, 2, 2])
ELLIPSE = ShapeSpec(
    "region",
    expr=parse_expr(["-", ["+", ["*", "x", "x", "1/4"], ["square", "y"]], 1]),
)

# the shapes, windows and pitches that the pipeline tests digitize
CORPUS = [
    (shape_segment(), BoxCell.make([-1], [2]), "1/2"),
    (shape_disk(), WINDOW2, "1/2"),
    (shape_disk(), WINDOW2, "1/4"),
    (shape_disk("3/4"), BoxCell.make(["-5/3", "-1"], [1, "7/5"]), "2/5"),
    (ELLIPSE, BoxCell.make([-3, -2], [3, 2]), "1/2"),
    (shape_circle(), WINDOW2, "1/2"),
    (shape_circle(), WINDOW2, "1/4"),
    (shape_annulus("3/4", "3/2"), WINDOW2, "1/2"),
    (shape_annulus("3/4", "3/2"), WINDOW2, "1/3"),
    (shape_annulus("3/4", "3/2"), WINDOW2, "1/4"),
    (shape_annulus("3/4", "5/4"), WINDOW2, "1/4"),
    (shape_sphere(), WINDOW3, "1/2"),
    (shape_sphere(), BoxCell.make(["-3/2"] * 3, ["3/2"] * 3), "1/4"),
    (shape_sphere("4/5"), BoxCell.make(["-1/3"] * 3, [1, 1, "6/5"]), "3/7"),
]

# 3-D sphere shells of 704 and 1,184 cubes
SHELLS = [
    (shape_sphere("3/2"), BoxCell.make(["-2"] * 3, ["2"] * 3), "1/4"),
    (shape_sphere("2"), BoxCell.make(["-5/2"] * 3, ["5/2"] * 3), "1/4"),
]


def reference_cubical_model(shape, window, pitch):
    """Regions and hypersurfaces judged cube by cube with `eval_expr`.

    This is the sampling loop the shared-lattice evaluator replaced: every
    cube evaluates its own 3^p samples in `Fraction` arithmetic.
    """
    L = Fraction(pitch)
    ranges = [range(math.floor(lo / L), math.ceil(hi / L)) for lo, hi in zip(window.lo, window.hi)]
    cubes = set()
    for cube in itertools.product(*ranges):
        samples = itertools.product(*[[(c + t) * L for t in (0, Fraction(1, 2), 1)] for c in cube])
        signs = {(v > 0) - (v < 0) for v in (eval_expr(shape.expr, pt) for pt in samples)}
        if shape.kind == "region":
            hit = -1 in signs or 0 in signs
        else:
            hit = 0 in signs or {-1, 1} <= signs
        if hit:
            cubes.add(cube)
    return CubicalModel(L, window.ambient, frozenset(cubes))


def reference_curve_model(shape, window, pitch):
    """Curves sampled along every segment's whole length, inside the window
    or not, with the cubes outside the window's cube range dropped after.

    This is the sampler that clipping each segment to the window replaced.
    """
    L = Fraction(pitch)
    ranges = [range(math.floor(lo / L), math.ceil(hi / L)) for lo, hi in zip(window.lo, window.hi)]
    cubes = set()
    for a, b in zip(shape.points, shape.points[1:]):
        steps = max(1, math.ceil(4 * sum(abs(bb - aa) for aa, bb in zip(a, b)) / L))
        for s in range(steps + 1):
            pt = [aa + Fraction(s, steps) * (bb - aa) for aa, bb in zip(a, b)]
            touching = [[k - 1, k] if (x / L).denominator == 1 else [k] for x in pt for k in [math.floor(x / L)]]
            cubes.update(itertools.product(*touching))
    cubes = {c for c in cubes if all(x in r for x, r in zip(c, ranges))}
    return CubicalModel(L, window.ambient, frozenset(cubes))


@st.composite
def _curve_cases(draw):
    ambient = draw(st.integers(1, 3))
    pitch = Fraction(draw(st.sampled_from(["1", "1/2", "2/5", "1/3"])))
    coords = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))
    points = draw(st.lists(st.tuples(*[coords] * ambient), min_size=2, max_size=4))
    lo, hi = [], []
    for _ in range(ambient):
        a, b = sorted(draw(coords) / 2 for _ in range(2))
        lo.append(a)
        hi.append(b)
    return ShapeSpec("curve", points=tuple(points)), BoxCell.make(lo, hi), pitch


_CONSTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-2/3", "3/7", "5/4", "-1/5", "7/3"]),
    st.sampled_from([0.5, -0.25, 1.5, 0.1, -0.3]),
)


def _trees(leaves, max_leaves, max_operands=3):
    def node(sub):
        nary = st.tuples(
            st.sampled_from(["+", "*", "min", "max"]),
            st.lists(sub, min_size=2, max_size=max_operands),
        ).map(lambda t: [t[0], *t[1]])
        minus = st.lists(sub, min_size=1, max_size=2).map(lambda a: ["-", *a])
        unary = st.tuples(st.sampled_from(["abs", "square"]), sub).map(list)
        return nary | minus | unary

    return st.recursive(leaves, node, max_leaves=max_leaves)


def _exprs(ambient):
    return _trees(_CONSTS | st.sampled_from(["x", "y", "z"][:ambient]), max_leaves=8)


def _degree(expr) -> int:
    """The integer degree `_compile` evaluates ``expr`` at."""
    op = expr[0]
    if op in ("const", "var"):
        return 1
    degrees = [_degree(a) for a in expr[1:]]
    if op == "*":
        return sum(degrees)
    if op == "square":
        return 2 * degrees[0]
    return max(degrees)


@st.composite
def _compile_cases(draw):
    """An expression over 1-3 axes built from subtrees that read 0, 1, 2 or 3
    of them, one lattice of 1-4 integer coordinates per axis, and a scale
    that clears every constant's denominator."""
    ambient = draw(st.integers(1, 3))
    names = ["x", "y", "z"][:ambient]
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        reads = draw(st.lists(st.sampled_from(names), unique=True, max_size=ambient))
        leaves = _CONSTS | st.sampled_from(reads) if reads else _CONSTS
        parts.append(draw(_trees(leaves, max_leaves=5, max_operands=5)))
    op = draw(st.sampled_from(["+", "*", "min", "max", "-"]))
    expr = parse_expr([op, *parts] if op != "-" else ["-", *parts[:2]])
    if draw(st.booleans()):
        expr = (draw(st.sampled_from(["abs", "square", "-"])), expr)
    assume(_degree(expr) <= MAX_DEGREE)
    axes = [draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4)) for _ in names]
    scale = math.lcm(*_const_denominators(expr)) * draw(st.sampled_from([1, 2, 3]))
    return expr, scale, axes


@st.composite
def _digitizer_cases(draw):
    ambient = draw(st.integers(1, 3))
    pitch = Fraction(draw(st.sampled_from(["1", "1/2", "2/5", "1/3", "3/7"])))
    max_cubes = {1: 8, 2: 5, 3: 3}[ambient]
    lo, hi, sample = [], [], []
    for _ in range(ambient):
        d = draw(st.integers(1, 4))
        start = pitch * Fraction(draw(st.integers(-3 * d, 2 * d)), d)
        end = start + pitch * Fraction(draw(st.integers(1, max_cubes * d)), d)
        lo.append(start)
        hi.append(end)
        k = draw(st.integers(2 * math.floor(start / pitch), 2 * math.ceil(end / pitch)))
        sample.append(k * pitch / 2)
    expr = draw(_exprs(ambient))
    if draw(st.booleans()):
        # move a zero of f onto a lattice sample, so verdicts differ across cubes
        expr = ["-", expr, eval_expr(parse_expr(expr), sample)]
    kind = draw(st.sampled_from(["region", "hypersurface"]))
    return ShapeSpec(kind, expr=parse_expr(expr)), BoxCell.make(lo, hi), pitch


class TestExpressions:
    def test_parse_and_eval(self):
        e = parse_expr(["-", ["+", ["square", "x"], ["square", "y"]], 1])
        assert eval_expr(e, (Fraction(1), Fraction(0))) == 0
        assert eval_expr(e, (Fraction(1, 2), Fraction(0))) == Fraction(-3, 4)

    def test_all_operations(self):
        e = parse_expr(["max", ["min", "x", "y"], ["abs", ["-", "x"]], ["*", "x", "y", 2]])
        assert eval_expr(e, (Fraction(-1), Fraction(3))) == 1

    def test_bad_op_rejected(self):
        with pytest.raises(ShapeError, match="unknown operation"):
            parse_expr(["pow", "x", 2])

    def test_unknown_variable_and_bad_constant_are_named_apart(self):
        with pytest.raises(ShapeError, match="^unknown variable 'w'$"):
            parse_expr(["-", "w", 1])
        with pytest.raises(ShapeError, match="^constant '1/0' is not a valid rational$"):
            parse_expr(["-", "x", "1/0"])

    @pytest.mark.parametrize("value", ["true", "NaN", "Infinity"])
    def test_json_values_that_are_not_rationals_are_shape_errors(self, value):
        # Python's json reads all three, as a boolean and two floats
        with pytest.raises(ShapeError, match="^constant .* is not a valid rational$"):
            load_shape('{"kind": "region", "expr": ["-", "x", %s]}' % value)
        with pytest.raises(ShapeError, match="^curve coordinate .* is not a valid rational$"):
            load_shape('{"kind": "curve", "points": [[0], [%s]]}' % value)

    def test_rational_strings(self):
        e = parse_expr(["-", "x", "1/3"])
        assert eval_expr(e, (Fraction(1),)) == Fraction(2, 3)

    def test_nesting_bound(self):
        def nested(depth):
            obj = "x"
            for _ in range(depth):
                obj = ["-", obj]
            return obj

        deepest = parse_expr(nested(MAX_EXPR_DEPTH))
        assert eval_expr(deepest, (Fraction(1),)) == 1
        model = cubical_model(ShapeSpec("region", expr=deepest), BoxCell.make([-2], [2]), 1)
        assert model.cubes == {(-2,), (-1,), (0,)}
        with pytest.raises(ShapeError, match="nested deeper than"):
            parse_expr(nested(MAX_EXPR_DEPTH + 1))
        with pytest.raises(ShapeError, match="nested deeper than"):
            parse_expr(nested(3000))


    def test_degree_cap(self):
        # x - 1/3 squared six times has degree 64, the cap; a constant
        # counts degree 1, as the scaled evaluator sees it
        expr = ["-", "x", "1/3"]
        while _compile(parse_expr(expr), 3, [[]])[1] < MAX_DEGREE:
            expr = ["square", expr]
        at_cap = parse_expr(["-", expr, "1/2"])
        values, degree = _compile(at_cap, 6, [range(-12, 13)])
        assert degree == MAX_DEGREE
        assert list(values) == [
            eval_expr(at_cap, (Fraction(k, 6),)) * 6**degree for k in range(-12, 13)
        ]
        shape, window = ShapeSpec("region", expr=at_cap), BoxCell.make([-2], [2])
        assert cubical_model(shape, window, "1/3") == reference_cubical_model(shape, window, "1/3")
        for above in (["square", expr], ["*", expr, "x"]):
            with pytest.raises(ShapeError, match="^expression has degree .*above the cap of 64$"):
                cubical_model(ShapeSpec("region", expr=parse_expr(above)), window, 1)

    @settings(max_examples=300, deadline=None)
    @given(_compile_cases())
    def test_compiled_stream_matches_eval_expr(self, case):
        expr, scale, axes = case
        values, degree = _compile(expr, scale, axes)
        assert degree == _degree(expr)
        assert list(values) == [
            eval_expr(expr, [Fraction(k, scale) for k in point]) * scale**degree
            for point in itertools.product(*axes)
        ]

    def test_constant_subtree_past_the_cap_raises_before_folding(self):
        # 2^(2^15) squared six times folds to a 256 KiB int at degree 64; one
        # more square or factor would form another of 256-512 KiB
        expr = 2 ** 2**15
        for _ in range(6):
            expr = ["square", expr]
        at_cap = parse_expr(expr)

        def peak_of(expr):
            tracemalloc.start()
            try:
                values, degree = _compile(expr, 1, [[0]])
                return tracemalloc.get_traced_memory()[1], list(values), degree
            except ShapeError as exc:
                return tracemalloc.get_traced_memory()[1], str(exc), None
            finally:
                tracemalloc.stop()

        folded, values, degree = peak_of(at_cap)
        assert degree == MAX_DEGREE and values == [2 ** 2**21]
        for above, past in ((("square", at_cap), 128), (("*", ("const", Fraction(3)), at_cap), 65)):
            peak, message, _ = peak_of(above)
            assert message == f"expression has degree {past}, above the cap of 64"
            assert peak < folded + 2**17


class TestCubicalModel:
    def test_segment_run_of_cubes(self):
        model = cubical_model(shape_segment(), BoxCell.make([-1], [2]), "1/2")
        assert model.cubes == {(-1,), (0,), (1,), (2,)}
        # the closed segment [0,1] touches cube -1 at 0 and cube 2 at 1

    def test_circle_ring_excludes_origin(self):
        model = cubical_model(shape_circle(), WINDOW2, "1/2")
        center = {(0, 0), (-1, 0), (0, -1), (-1, -1)}
        assert not (model.cubes & center)
        assert len(model.cubes) == 20

    def test_disk_includes_origin(self):
        model = cubical_model(shape_disk(), WINDOW2, "1/2")
        assert {(0, 0), (-1, 0), (0, -1), (-1, -1)} <= model.cubes

    def test_empty_result_reported(self):
        far = ShapeSpec("curve", points=((Fraction(50),), (Fraction(51),)))
        model = cubical_model(far, BoxCell.make([0], [1]), "1/2")
        assert len(model.cubes) == 0
        with pytest.raises(ShapeError, match="misses the window"):
            digitize_reduce(far, BoxCell.make([0], [1]), "1/2")

    def test_pitch_must_be_positive(self):
        with pytest.raises(ShapeError):
            cubical_model(shape_segment(), BoxCell.make([0], [1]), 0)

    def test_window_cube_cap(self):
        # a region that holds nowhere still evaluates every lattice point
        nowhere = ShapeSpec("region", expr=parse_expr(1))
        assert not cubical_model(nowhere, BoxCell.make([0, 0], [MAX_CUBES // 100, 100]), 1).cubes
        # the cap is checked before any lattice point: evaluating z in 2-D
        # would raise a different error
        uses_z = ShapeSpec("region", expr=parse_expr("z"))
        with pytest.raises(ShapeError, match="above the cap"):
            cubical_model(uses_z, BoxCell.make([0, 0], [MAX_CUBES + 1, 1]), 1)
        with pytest.raises(ShapeError, match="above the cap"):
            cubical_model(shape_segment(), BoxCell.make([0], [MAX_CUBES + 1]), 1)

    @settings(max_examples=300, deadline=None)
    @given(_digitizer_cases())
    def test_lattice_evaluator_matches_per_cube_sampling(self, case):
        shape, window, pitch = case
        assert cubical_model(shape, window, pitch) == reference_cubical_model(shape, window, pitch)

    @settings(max_examples=200, deadline=None)
    @given(_curve_cases())
    def test_clipped_curve_sampling_matches_the_whole_polyline(self, case):
        shape, window, pitch = case
        assert cubical_model(shape, window, pitch) == reference_curve_model(shape, window, pitch)

    def test_curve_far_outside_the_window_is_cheap(self):
        # 4 * 10^9 quarter-pitch samples, of which five lie in the window
        long = ShapeSpec("curve", points=((Fraction(0),), (Fraction(10**9),)))
        model = cubical_model(long, BoxCell.make([0], [1]), 1)
        assert model.cubes == {(0,)}

    def test_bundled_shapes_match_per_cube_sampling(self):
        cases = [
            (shape_circle(), WINDOW2, "1/4"),
            (shape_disk("3/4"), BoxCell.make(["-5/3", "-1"], [1, "7/5"]), "2/5"),
            (shape_annulus("3/4", "3/2"), WINDOW2, "1/3"),
            (shape_sphere(), WINDOW3, "1/2"),
            (shape_sphere("4/5"), BoxCell.make(["-1/3"] * 3, [1, 1, "6/5"]), "3/7"),
        ]
        for shape, window, pitch in cases:
            model = cubical_model(shape, window, pitch)
            assert model.cubes
            assert model == reference_cubical_model(shape, window, pitch)

    def test_empty_cube_range_evaluates_nothing(self):
        # z does not exist in a 2-D window, so any evaluation would raise
        uses_z = ShapeSpec("region", expr=parse_expr(["-", "z", 1]))
        for window in (BoxCell.make([0, -1], [0, 1]), BoxCell.make([-1, "1/2"], [1, "1/2"])):
            model = cubical_model(uses_z, window, "1/2")
            assert model == CubicalModel(Fraction(1, 2), 2, frozenset())

    def test_wide_sum_digitizes(self):
        # one `+` of 100,000 operands: the evaluator must not nest per operand
        wide = ShapeSpec("region", expr=parse_expr(["+"] + ["x"] * 100_000))
        model = cubical_model(wide, BoxCell.make([-2], [2]), 1)
        assert model.cubes == {(-2,), (-1,), (0,)}

    def test_lattice_evaluation_holds_no_list_per_node(self):
        # 8,000 cubes over 68,921 lattice points; a list of values per node
        # would hold megabytes
        window = BoxCell.make([-4] * 3, [4] * 3)
        tracemalloc.start()
        try:
            model = cubical_model(shape_sphere(3), window, "2/5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.cubes
        assert peak < 4 * 2**20

    def test_degree_cap_comes_before_a_missing_axis(self):
        # x squared six times has degree 64; one more factor passes the cap
        big = "x"
        for _ in range(6):
            big = ["square", big]
        for expr in (["*", "z", big], ["*", big, "z"], ["+", "z", ["*", big, "y"]]):
            with pytest.raises(ShapeError) as exc:
                cubical_model(ShapeSpec("region", expr=parse_expr(expr)), WINDOW2, "1/2")
            assert str(exc.value) == "expression has degree 65, above the cap of 64"

    def test_missing_axis_raises_when_a_point_is_evaluated(self):
        for kind in ("region", "hypersurface"):
            uses_z = ShapeSpec(kind, expr=parse_expr(["+", "x", ["square", "z"]]))
            with pytest.raises(ShapeError) as exc:
                cubical_model(uses_z, WINDOW2, "1/2")
            assert str(exc.value) == "expression uses axis 2, point has 2"


class TestModelGraph:
    def test_face_and_corner_adjacency(self):
        m = CubicalModel(Fraction(1), 2, frozenset({(0, 0), (1, 0), (1, 1)}))
        g = model_graph(m)
        assert g.size == 3  # all pairs within Chebyshev distance 1

    def test_2x2_block_is_k4(self):
        m = CubicalModel(Fraction(1), 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
        g = model_graph(m)
        assert g.order == 4 and g.size == 6

    def test_rows_match_the_labelled_graph(self):
        for shape, window, pitch in CORPUS + SHELLS:
            model = cubical_model(shape, window, pitch)
            g, want = model_graph(model), labelled_model_graph(model)
            assert g.vertices == want.vertices
            assert g._rows == want._rows

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.tuples(*[st.integers(-10**6, 10**6)] * p),
                st.sets(st.tuples(*[st.integers(0, 4)] * p), max_size=40),
            )
        )
    )
    @example((2, (0, 0), set()))
    @example((1, (-3,), {(0,), (1,), (3,), (4,)}))
    @example((3, (-7, -2, -5), {(0, 0, 0), (1, 1, 1), (0, 2, 0), (4, 4, 4), (3, 4, 4)}))
    @example((3, (10**9, 0, -10**9), {(0, 0, 0), (1, 0, 0), (0, 1, 1)}))
    def test_rows_match_the_labelled_graph_anywhere_on_the_lattice(self, case):
        # empty, 1-D, negative and far-off models; labels with a minus sign
        # or more digits sort apart from their lattice order
        ambient, corner, box = case
        cubes = frozenset(tuple(map(operator.add, corner, c)) for c in box)
        model = CubicalModel(Fraction(1), ambient, cubes)
        g, want = model_graph(model), labelled_model_graph(model)
        assert g.vertices == want.vertices
        assert g._rows == want._rows

    def test_sparse_model_costs_its_cubes(self):
        # two cubes 10^12 apart share no box worth allocating
        model = CubicalModel(Fraction(1), 3, frozenset({(0, 0, 0), (10**12, 1, 0), (10**12, 0, 0)}))
        g = model_graph(model)
        assert g.vertices == ("0,0,0", "1000000000000,0,0", "1000000000000,1,0")
        assert g._rows == (0, 0b100, 0b010)

    def test_degree_bound(self):
        model = cubical_model(shape_disk(), WINDOW2, "1/2")
        g = model_graph(model)
        assert all(g.degree(v) <= 3**2 - 1 for v in g.vertices)
        model3 = cubical_model(shape_sphere(), WINDOW3, "1/2")
        g3 = model_graph(model3)
        assert all(g3.degree(v) <= 3**3 - 1 for v in g3.vertices)


class TestPipeline:
    def test_segment_reduces_to_point(self):
        rep = digitize_reduce(shape_segment(), BoxCell.make([-1], [2]), "1/2")
        assert rep.residue.order == 1
        assert rep.euler == 1

    def test_disk_reduces_to_point(self):
        rep = digitize_reduce(shape_disk(), WINDOW2, "1/2")
        assert rep.residue.order == 1
        assert rep.euler == 1 and rep.profile.betti_q == (1,)

    def test_circle_reduces_to_cycle(self):
        rep = digitize_reduce(shape_circle(), WINDOW2, "1/2")
        assert rep.euler == 0
        assert rep.profile.betti_q == (1, 1)
        assert rep.residue.order >= 4
        assert all(rep.residue.degree(v) == 2 for v in rep.residue.vertices)

    def test_circle_pitches_equivalent(self):
        half = digitize_reduce(shape_circle(), WINDOW2, "1/2")
        quarter = digitize_reduce(shape_circle(), WINDOW2, "1/4")
        verdict = homotopy_equivalent(half.graph, quarter.graph)
        assert verdict.status == "Equivalent"

    def test_sphere_invariants(self):
        rep = digitize_reduce(shape_sphere(), WINDOW3, "1/2")
        assert rep.euler == 2
        assert tuple(rep.profile.betti_q[:3]) == (1, 0, 1)
        assert all(b == 0 for b in rep.profile.betti_q[3:])

    def test_annulus_keeps_circle_type(self):
        rep = digitize_reduce(shape_annulus("3/4", "5/4"), WINDOW2, "1/4")
        assert rep.euler == 0
        assert rep.profile.betti_q == (1, 1)

    def test_euler_of_the_residue_is_the_models(self):
        for shape, window, pitch in CORPUS + SHELLS:
            rep = digitize_reduce(shape, window, pitch)
            assert rep.euler == euler_characteristic(rep.graph)

    def test_convex_regions_reduce_to_a_point(self):
        for shape, window, pitch in [
            (shape_disk(), WINDOW2, "1/2"),
            (shape_disk(), WINDOW2, "1/4"),
            (ELLIPSE, BoxCell.make([-3, -2], [3, 2]), "1/2"),
        ]:
            rep = digitize_reduce(shape, window, pitch)
            assert rep.residue.order == 1

    def test_resolution_stability_bundled_suite(self):
        # hole and ring widths stay above the coarser sample grid
        cases = [
            (shape_segment(), BoxCell.make([-1], [2])),
            (shape_disk(), WINDOW2),
            (shape_circle(), WINDOW2),
            (shape_annulus("3/4", "3/2"), WINDOW2),
        ]
        for shape, window in cases:
            a = digitize_reduce(shape, window, "1/2")
            b = digitize_reduce(shape, window, "1/4")
            verdict = homotopy_equivalent(a.graph, b.graph)
            assert (
                verdict.status == "Equivalent"
                or (a.euler == b.euler and same_profile(a.profile, b.profile))
            ), shape.kind

    def test_resolution_stability_sphere(self):
        a = digitize_reduce(shape_sphere(), WINDOW3, "1/2")
        b = digitize_reduce(
            shape_sphere(), BoxCell.make(["-3/2"] * 3, ["3/2"] * 3), "1/4"
        )
        assert a.euler == b.euler == 2
        assert same_profile(a.profile, b.profile)

    def test_report_object(self):
        rep = digitize_reduce(shape_segment(), BoxCell.make([-1], [2]), "1/2")
        obj = rep.to_obj()
        assert obj["euler"] == 1 and obj["cubes"] == 4
        assert obj["residue"]["vertices"]


class TestShapeIo:
    def test_load_shape_file(self):
        text = """
        {"kind": "hypersurface",
         "expr": ["-", ["+", ["square","x"], ["square","y"]], 1],
         "window": {"lo": [-2,-2], "hi": [2,2]},
         "pitch": "1/2"}
        """
        shape, window, pitch = load_shape(text)
        assert shape.kind == "hypersurface"
        assert window.lo == (-2, -2) and pitch == Fraction(1, 2)

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"pitch": true', "cannot read rational value True"),
            ('"window": {"lo": [NaN, 0], "hi": [1, 1]}', "cannot read rational value nan"),
            ('"window": {"lo": ["q", 0], "hi": [1, 1]}', "cannot read rational value 'q'"),
        ],
    )
    def test_pitch_and_window_bounds_that_are_not_rationals(self, field, message):
        text = '{"kind": "region", "expr": "x", %s}' % field
        with pytest.raises(ShapeError) as exc:
            load_shape(text)
        assert str(exc.value) == message

    def test_deeply_nested_json_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="JSON nested too deeply"):
            load_shape('{"kind": "region", "expr": ' + "[" * 3000 + "]" * 3000 + "}")

    def test_mask_dumps(self):
        model = cubical_model(shape_circle(), WINDOW2, "1/2")
        csv = mask_csv(model)
        assert csv.count("\n") == 6 and set(csv) <= set("01,\n")

    def test_mask_requires_2d(self):
        model = cubical_model(shape_segment(), BoxCell.make([0], [1]), "1/2")
        with pytest.raises(ShapeError):
            mask_csv(model)
