"""Box covers: exact lattice intersections, LCL validation, nerves, traces, merges."""

import random
from fractions import Fraction

import pytest

from conftest import (
    aligned_grid_torus_cover,
    brick_wall_torus_cover,
    brute_lcl,
    brute_nerve,
    brute_trace,
    cube_faces_cover,
    cycle_graph,
    generated_box_covers,
    random_box_covers,
)
from digitopo import covers
from digitopo.catalog import get
from digitopo.classify import is_n_sphere
from digitopo.covers import (
    BoxCell,
    BoxCover,
    CoverError,
    boundary_trace_cover,
    merge_cells,
    nerve,
    validate_lcl,
)
from digitopo.graph import canonical_key
from digitopo.io import graph_to_obj
from digitopo.homotopy import is_contractible


class TestBoxCell:
    def test_dimension_counts_fat_axes(self):
        assert BoxCell.make([0, 0], [1, 1]).dimension == 2
        assert BoxCell.make([0, 0], [0, 1]).dimension == 1
        assert BoxCell.make([0, 0], [0, 0]).dimension == 0

    def test_rational_inputs(self):
        c = BoxCell.make(["1/3", 0], ["2/3", "0.5"])
        assert c.lo[0] == Fraction(1, 3) and c.hi[1] == Fraction(1, 2)

    def test_negative_extent_rejected(self):
        with pytest.raises(CoverError):
            BoxCell.make([1], [0])

    def test_cover_dimension_mismatch_rejected(self):
        with pytest.raises(CoverError, match="dimension"):
            BoxCover.make([BoxCell.make([0, 0], [1, 0])], [None, None], 2)

    def test_periodic_extent_cap(self):
        with pytest.raises(CoverError, match="below the period"):
            BoxCover.make([BoxCell.make([0], [4])], [4], 1)


class TestIntersectCells:
    """Intersections of two cells, read off the pairwise pass on the cover's
    integer lattice and brought back to the cover's own coordinates by
    `boundary_trace_cover`; and the checks `BoxCover.make` makes before any
    intersection."""

    def test_shared_face(self):
        a = BoxCell.make([0, 0], [1, 1])
        b = BoxCell.make([1, 0], [2, 1])
        traced, _ = boundary_trace_cover(BoxCover.make([a, b], [None, None], 2), 0)
        (e,) = traced.cells
        assert e.lo == (1, 0) and e.hi == (1, 1) and e.dimension == 1

    def test_disjoint(self):
        cover = BoxCover.make([BoxCell.make([0], [1]), BoxCell.make([2], [3])], [None], 1)
        assert cover._pair_pieces == {} and nerve(cover).size == 0

    def test_periodic_wraparound_point(self):
        cover = BoxCover.make([BoxCell.make([3], [4]), BoxCell.make([0], [1])], [Fraction(4)], 1)
        traced, _ = boundary_trace_cover(cover, 0)
        (e,) = traced.cells
        assert e.lo == (0,) and e.hi == (0,) and e.dimension == 0

    def test_two_arc_double_touch_not_a_box(self):
        # arcs [0,2] and [2,4] on a period-4 circle meet at 0 and 2
        cover = BoxCover.make([BoxCell.make([0], [2]), BoxCell.make([2], [4])], [Fraction(4)], 1)
        assert cover._pair_pieces[0, 1] == [[(0, 0), (2, 2)]]
        with pytest.raises(CoverError, match="not a single box"):
            boundary_trace_cover(cover, 0)
        report = validate_lcl(cover)
        assert report.violations[0].to_obj() == {
            "indices": [0, 1],
            "clause": "LL-dimension",
            "detail": "intersection is not a single box",
        }

    def test_mixed_ambient_rejected(self):
        with pytest.raises(CoverError, match="ambient"):
            BoxCover.make([BoxCell.make([0], [1]), BoxCell.make([0, 0], [1, 1])], [None], 1)

    @pytest.mark.parametrize("periods", [[None], [None, None, None]])
    def test_period_list_of_the_wrong_length_rejected(self, periods):
        # too short, the second axis would go unchecked and these disjoint
        # squares "meet"; too long, it would index past the corners
        cells = [BoxCell.make([0, 0], [2, 2]), BoxCell.make([1, 5], [3, 6])]
        with pytest.raises(CoverError, match="period list length differs from ambient"):
            BoxCover.make(cells, periods, 2)


def _lattice_covers():
    """A period of 5/2 over integer corners, whose scale comes from the
    period alone, and a torus-by-interval cover mixing thirds and halves."""
    half_period = BoxCover.make(
        [BoxCell.make([a, b], [a + 1, b + 1]) for a in range(3) for b in range(2)]
        + [BoxCell.make([0, 0], [2, 1])],
        ["5/2", None],
        2,
    )
    thirds_and_halves = BoxCover.make(
        [
            BoxCell.make([0, 0], ["1/2", "1/3"]),
            BoxCell.make(["1/2", 0], ["3/2", "1/3"]),
            BoxCell.make([0, "1/3"], ["2/3", 1]),
            BoxCell.make(["2/3", "1/3"], ["4/3", 1]),
            BoxCell.make(["4/3", "1/3"], [2, 1]),
            BoxCell.make(["1/3", "1/2"], ["5/6", "3/2"]),
        ],
        ["3/2", None],
        2,
    )
    return [half_period, thirds_and_halves]


class TestLattice:
    @pytest.mark.parametrize("cover, scale", zip(_lattice_covers(), [2, 6]), ids=["5/2", "thirds"])
    def test_against_brute_force(self, cover, scale):
        assert cover._lattice[0] == scale
        assert validate_lcl(cover).to_obj() == brute_lcl(cover)
        assert graph_to_obj(nerve(cover)) == graph_to_obj(brute_nerve(cover))
        for i in range(len(cover.cells)):
            want = brute_trace(cover, i)
            if want is None:
                with pytest.raises(CoverError):
                    boundary_trace_cover(cover, i)
                continue
            traced, verdict = boundary_trace_cover(cover, i)
            assert ([(c.lo, c.hi) for c in traced.cells], verdict) == want, i

    def test_merge_returns_to_the_cover_coordinates(self):
        cover = BoxCover.make(
            [BoxCell.make([0], ["1/3"]), BoxCell.make(["1/3"], ["2/3"]), BoxCell.make(["2/3"], [1])],
            [None],
            1,
        )
        merged, report = merge_cells(cover, [0, 1])
        assert report.verdict
        assert merged.cells[0] == BoxCell.make([0], ["2/3"])
        assert merged.to_obj()["cells"][0] == {"lo": [0], "hi": ["2/3"]}


class TestValidateLcl:
    def test_three_segments_valid(self):
        cover = BoxCover.make(
            [BoxCell.make([i], [i + 1]) for i in range(3)], [None], 1
        )
        assert validate_lcl(cover).verdict

    def test_overlapping_squares_fail_both_clauses(self):
        cover = BoxCover.make(
            [BoxCell.make([0, 0], [1, 1]), BoxCell.make(["1/2", 0], ["3/2", 1])],
            [None, None],
            2,
        )
        report = validate_lcl(cover)
        clauses = {v.clause for v in report.violations}
        assert not report.verdict
        assert "LL-dimension" in clauses and "LL-boundary" in clauses

    def test_aligned_grid_four_corner_violation(self):
        report = validate_lcl(aligned_grid_torus_cover())
        assert not report.verdict
        quads = [v for v in report.violations if len(v.indices) == 4]
        assert quads and all(v.clause == "LL-dimension" for v in quads)

    def test_brick_wall_valid(self):
        assert validate_lcl(brick_wall_torus_cover()).verdict

    def test_cube_faces_valid(self):
        assert validate_lcl(cube_faces_cover()).verdict

    def test_three_long_arcs_fail_lc(self):
        # pairwise touching arcs around a period-3 circle, empty total
        cover = BoxCover.make(
            [BoxCell.make([0], [1]), BoxCell.make([1], [2]), BoxCell.make([2], [3])],
            [Fraction(3)],
            1,
        )
        report = validate_lcl(cover)
        assert not report.verdict
        assert any(v.clause == "LC" for v in report.violations)

    def test_euclidean_covers_never_violate_lc(self):
        rng = random.Random(17)
        for _ in range(25):
            cells = []
            for _ in range(rng.randint(2, 6)):
                lo = [Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4))]
                hi = [a + Fraction(rng.randint(1, 3)) for a in lo]
                cells.append(BoxCell.make(lo, hi))
            cover = BoxCover.make(cells, [None, None], 2)
            report = validate_lcl(cover)
            assert all(v.clause != "LC" for v in report.violations)

    def test_generated_covers_all_valid(self):
        for cover in generated_box_covers(20, seed=5):
            assert validate_lcl(cover).verdict


    def test_clique_above_the_cap_is_an_error(self):
        cover = BoxCover.make([BoxCell.make([0, 0], [1, 1])] * 10, [None, None], 2)
        with pytest.raises(CoverError, match="clique larger than cap 9"):
            validate_lcl(cover)


def _oracle_corpus():
    """Seeded random covers (1-3 axes, Euclidean and periodic), generated
    valid covers of a box, and the named covers."""
    named = [brick_wall_torus_cover(), aligned_grid_torus_cover(), cube_faces_cover()]
    return random_box_covers(150, seed=7) + generated_box_covers(10, seed=3) + named


class TestAgainstBruteForce:
    """Validation, nerves and traces against the subfamily-by-subfamily
    oracles of conftest, which sample every intersection on a lattice."""

    def test_validate_lcl(self):
        clauses = set()
        for cover in _oracle_corpus():
            want = brute_lcl(cover)
            assert validate_lcl(cover).to_obj() == want, cover.to_obj()
            clauses |= {v["clause"] for v in want["violations"]}
        assert clauses == {"LC", "LL-dimension", "LL-boundary"}

    def test_nerve(self):
        for cover in _oracle_corpus():
            assert graph_to_obj(nerve(cover)) == graph_to_obj(brute_nerve(cover)), cover.to_obj()

    def test_boundary_trace_cover(self):
        for cover in _oracle_corpus():
            for i in range(len(cover.cells)):
                want = brute_trace(cover, i)
                if want is None:
                    with pytest.raises(CoverError):
                        boundary_trace_cover(cover, i)
                    continue
                traced, verdict = boundary_trace_cover(cover, i)
                assert ([(c.lo, c.hi) for c in traced.cells], verdict) == want, (cover.to_obj(), i)


class TestNerve:
    def test_row_of_squares_is_path(self):
        cells = [BoxCell.make([i, 0], [i + 1, 1]) for i in range(4)]
        g = nerve(BoxCover.make(cells, [None, None], 2))
        assert g.order == 4 and g.size == 3

    def test_brick_wall_nerve_is_torus16(self):
        g = nerve(brick_wall_torus_cover())
        assert canonical_key(g) == canonical_key(get("torus16").graph)

    def test_six_periodic_segments_give_c6(self):
        cover = BoxCover.make(
            [BoxCell.make([i], [i + 1]) for i in range(6)], [Fraction(6)], 1
        )
        g = nerve(cover)
        assert canonical_key(g) == canonical_key(cycle_graph(6))
        assert is_n_sphere(g, 1).ok

    def test_cube_faces_nerve_is_minimal_2_sphere(self):
        g = nerve(cube_faces_cover())
        assert g.order == 6 and g.size == 12
        assert is_n_sphere(g, 2).ok

    def test_single_box_covers_have_contractible_nerves(self):
        for cover in generated_box_covers(20, seed=9):
            assert is_contractible(nerve(cover)), cover.to_obj()


class TestBoundaryTrace:
    def test_middle_segment(self):
        cover = BoxCover.make(
            [BoxCell.make([i], [i + 1]) for i in range(3)], [None], 1
        )
        traced, verdict = boundary_trace_cover(cover, 1)
        assert verdict
        assert len(traced.cells) == 2 and traced.n == 0
        g = nerve(traced)
        assert g.order == 2 and g.size == 0

    def test_brick_wall_cells(self):
        cover = brick_wall_torus_cover()
        traced, verdict = boundary_trace_cover(cover, 0)
        assert verdict
        assert len(traced.cells) == 6
        g = nerve(traced)
        assert canonical_key(g) == canonical_key(cycle_graph(6))

    def test_cube_face(self):
        cover = cube_faces_cover()
        traced, verdict = boundary_trace_cover(cover, 0)
        assert verdict and len(traced.cells) == 4
        assert canonical_key(nerve(traced)) == canonical_key(cycle_graph(4))

    def test_isolated_cell_rejected(self):
        cover = BoxCover.make(
            [BoxCell.make([0], [1]), BoxCell.make([5], [6])], [None], 1
        )
        with pytest.raises(CoverError, match="no neighbors"):
            boundary_trace_cover(cover, 0)

    def test_neighbor_meeting_in_two_arcs_is_not_a_single_box(self):
        # on a period-3 circle, [0,2] and [3/2,7/2] meet in [0,1/2] and [3/2,2]
        cover = BoxCover.make(
            [BoxCell.make([0], [2]), BoxCell.make(["3/2"], ["7/2"])], [3], 1
        )
        with pytest.raises(CoverError, match="intersection is not a single box"):
            boundary_trace_cover(cover, 0)
        with pytest.raises(CoverError, match="no cell 2"):
            boundary_trace_cover(cover, 2)

    def test_holds_across_generated_suite(self):
        for cover in generated_box_covers(12, seed=31):
            for i in range(len(cover.cells)):
                try:
                    _, verdict = boundary_trace_cover(cover, i)
                except CoverError:
                    continue  # isolated cells only
                assert verdict, (cover.to_obj(), i)


class TestOneNervePerCover:
    def test_pairwise_pass_runs_once(self, monkeypatch):
        """Validation, nerve and trace of cell 0 on the brick wall intersect
        C(16,2) pairs for the cover's nerve and C(6,2) pairs for the traced
        cover's nerve: the LCL walk's 2-cliques and cell 0's traces read the
        pieces of the first pass. A second nerve intersects nothing."""
        pairs = []
        pieces = covers._intersection_pieces

        def counting(cells, periods):
            pairs.append(len(cells) == 2)
            return pieces(cells, periods)

        monkeypatch.setattr(covers, "_intersection_pieces", counting)
        cover = brick_wall_torus_cover()
        validate_lcl(cover)
        nerve(cover)
        boundary_trace_cover(cover, 0)
        assert sum(pairs) == 120 + 15
        before = len(pairs)
        nerve(cover)
        assert len(pairs) == before

    def test_cached_nerve_leaves_equality_and_output_alone(self):
        cover, fresh = brick_wall_torus_cover(), brick_wall_torus_cover()
        nerve(cover)
        assert "_nerve_rows" in vars(cover) and "_nerve_rows" not in vars(fresh)
        assert cover == fresh and hash(cover) == hash(fresh)
        assert repr(cover) == repr(fresh) and cover.to_obj() == fresh.to_obj()
        assert BoxCover.from_obj(cover.to_obj()) == fresh


class TestMergeCells:
    def test_merge_adjacent_segments(self):
        cover = BoxCover.make(
            [BoxCell.make([i], [i + 1]) for i in range(3)], [None], 1
        )
        merged, report = merge_cells(cover, [0, 1])
        assert report.verdict
        assert merged.cells[0].lo == (0,) and merged.cells[0].hi == (2,)
        assert len(merged.cells) == 2

    def test_merge_stacked_squares(self):
        cells = [
            BoxCell.make([0, 0], [1, 1]),
            BoxCell.make([0, 1], [1, 2]),
            BoxCell.make([1, 0], [2, 2]),
        ]
        cover = BoxCover.make(cells, [None, None], 2)
        merged, report = merge_cells(cover, [0, 1])
        assert report.verdict
        assert merged.cells[0].hi == (1, 2)

    def test_corner_union_rejected(self):
        cells = [
            BoxCell.make([0, 0], [1, 1]),
            BoxCell.make([1, 1], [2, 2]),
        ]
        cover = BoxCover.make(cells, [None, None], 2)
        with pytest.raises(CoverError, match="not a box"):
            merge_cells(cover, [0, 1])

    def test_periodic_merge_across_wrap(self):
        cover = BoxCover.make(
            [BoxCell.make([i], [i + 1]) for i in range(6)], [Fraction(6)], 1
        )
        merged, report = merge_cells(cover, [0, 5])
        assert report.verdict
        assert len(merged.cells) == 5

    def test_json_round_trip(self):
        cover = brick_wall_torus_cover()
        again = BoxCover.from_obj(cover.to_obj())
        assert canonical_key(nerve(again)) == canonical_key(nerve(cover))
