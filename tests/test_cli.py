"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import copy
import inspect
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitopo.classify import minimal_sphere
from digitopo.cli import main
from digitopo.graph import GraphError
from digitopo.io import graph_from_obj, graph_to_obj, parse_edge_list


@pytest.fixture
def files(tmp_path):
    c4 = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
    (tmp_path / "c4.json").write_text(json.dumps(c4))
    oct6 = {
        "vertices": [f"v{i}" for i in range(6)],
        "edges": [
            [f"v{i}", f"v{j}"]
            for i in range(6)
            for j in range(i + 1, 6)
            if {i, j} not in ({0, 1}, {2, 3}, {4, 5})
        ],
    }
    (tmp_path / "oct.json").write_text(json.dumps(oct6))
    shape = {
        "kind": "hypersurface",
        "expr": ["-", ["+", ["square", "x"], ["square", "y"]], 1],
        "window": {"lo": [-2, -2], "hi": [2, 2]},
        "pitch": "1/2",
    }
    (tmp_path / "circle.json").write_text(json.dumps(shape))
    bad_cover = {
        "ambient": 2,
        "n": 2,
        "domain": {"periodic": [None, None]},
        "cells": [
            {"lo": [0, 0], "hi": [1, 1]},
            {"lo": ["1/2", 0], "hi": ["3/2", 1]},
        ],
    }
    (tmp_path / "bad_cover.json").write_text(json.dumps(bad_cover))
    good_cover = {
        "ambient": 1,
        "n": 1,
        "domain": {"periodic": ["6"]},
        "cells": [{"lo": [i], "hi": [i + 1]} for i in range(6)],
    }
    (tmp_path / "circle_cover.json").write_text(json.dumps(good_cover))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_octahedron_sphere(self, files, capsys):
        code, out, _ = run(capsys, "classify", str(files / "oct.json"), "--dim", "2")
        assert code == 0
        assert json.loads(out) == {"dimension": 2, "kind": "Sphere", "witness": None}

    def test_disconnected_surface_names_the_smallest_label(self, files, capsys):
        path = files / "two_c4.txt"
        path.write_text("a b\nb c\nc d\nd a\nw x\nx y\ny z\nz w\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert out == '{"dimension":null,"kind":"None","witness":"a"}\n'

    def test_failed_property_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "classify", str(files / "c4.json"), "--dim", "2", "--kind", "sphere")
        assert code == 1
        assert json.loads(out)["kind"] == "None"

    def test_malformed_input_exit_2(self, files, capsys):
        (files / "broken.json").write_text("{not json")
        code, out, err = run(capsys, "classify", str(files / "broken.json"))
        assert code == 2 and not out and "input error" in err


class TestReduceInvariantsReplay:
    def test_reduce_emits_trace(self, files, capsys):
        (files / "tree.txt").write_text("a b\nb c\nc d\n")
        code, out, _ = run(capsys, "reduce", str(files / "tree.txt"))
        obj = json.loads(out)
        assert code == 0
        assert len(obj["residue"]["vertices"]) == 1
        assert len(obj["trace"]) == 3

    def test_invariants_torus(self, files, capsys):
        from digitopo.catalog import get
        from digitopo.io import graph_to_obj

        (files / "t16.json").write_text(json.dumps(graph_to_obj(get("torus16").graph)))
        code, out, _ = run(capsys, "invariants", str(files / "t16.json"))
        obj = json.loads(out)
        assert code == 0
        assert obj["euler"] == 0 and obj["betti_q"] == [1, 2, 1]

    def test_invariants_clique_above_cap_exit_2(self, files, capsys):
        vs = [f"k{i}" for i in range(10)]
        k10 = {"vertices": vs, "edges": [[a, b] for i, a in enumerate(vs) for b in vs[i + 1 :]]}
        (files / "k10.json").write_text(json.dumps(k10))
        code, out, err = run(capsys, "invariants", str(files / "k10.json"))
        assert code == 2 and not out
        assert err == "input error: clique larger than cap 9\n"

    def test_replay_non_string_label_exit_2(self, files, capsys):
        (files / "trace.json").write_text(json.dumps([{"op": "attach-point", "v": 5, "rim": ["a"]}]))
        code, out, err = run(capsys, "replay", str(files / "c4.json"), str(files / "trace.json"))
        assert code == 2 and not out
        assert err == "input error: vertex labels must be strings, got 5\n"

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"op": "attach-point", "v": "x", "rim": "ab"}, "{trace}: step 0: rim must be an array of labels"),
            ({"op": "attach-point", "v": "x", "rim": 5}, "{trace}: step 0: rim must be an array of labels"),
            ({"op": "attach-point", "v": "x", "rim": [["a"]]}, "vertex labels must be strings, got ['a']"),
            ({"op": "delete-point", "v": ["a"]}, "vertex labels must be strings, got ['a']"),
            ({"op": "delete-edge", "u": "a", "v": 1}, "vertex labels must be strings, got 1"),
        ],
        ids=["string-rim", "number-rim", "list-in-rim", "list-label", "number-label"],
    )
    def test_replay_malformed_step_exit_2(self, files, capsys, step, message):
        # a string rim used to be read as the set of its characters
        trace = files / "trace.json"
        trace.write_text(json.dumps([step]))
        code, out, err = run(capsys, "replay", str(files / "c4.json"), str(trace))
        assert code == 2 and not out
        assert err == "input error: " + message.format(trace=trace) + "\n"

    def test_replay_round_trip(self, files, capsys):
        (files / "tree.txt").write_text("a b\nb c\n")
        code, out, _ = run(capsys, "reduce", str(files / "tree.txt"))
        trace = json.loads(out)["trace"]
        (files / "trace.json").write_text(json.dumps(trace))
        code, out, _ = run(capsys, "replay", str(files / "tree.txt"), str(files / "trace.json"))
        obj = json.loads(out)
        assert code == 0 and obj["ok"] and len(obj["result"]["vertices"]) == 1

    def test_replay_lists_unknown_rim_vertices_sorted(self, files, capsys):
        # they were listed in set order, which changes with the hash seed
        step = {"op": "attach-point", "v": "x", "rim": ["zz", "yy", "xx", "ww"]}
        (files / "trace.json").write_text(json.dumps([step]))
        code, out, _ = run(capsys, "replay", str(files / "c4.json"), str(files / "trace.json"))
        assert code == 1
        assert json.loads(out)["error"] == (
            "step 0: attach-point 'x': unknown rim vertices ['ww', 'xx', 'yy', 'zz']"
        )

    def test_replay_invalid_trace_exit_1(self, files, capsys):
        (files / "trace.json").write_text(json.dumps([{"op": "delete-point", "v": "a"}]))
        code, out, _ = run(capsys, "replay", str(files / "c4.json"), str(files / "trace.json"))
        assert code == 1
        assert not json.loads(out)["ok"]


class TestCover:
    def test_validate_bad_cover_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "cover", "validate", str(files / "bad_cover.json"))
        obj = json.loads(out)
        assert code == 1 and not obj["verdict"]
        assert any(v["clause"].startswith("LL") for v in obj["violations"])

    def test_nerve_of_circle_cover(self, files, capsys):
        code, out, _ = run(capsys, "cover", "nerve", str(files / "circle_cover.json"))
        g = graph_from_obj(json.loads(out))
        assert code == 0 and g.order == 6 and g.size == 6

    def test_trace(self, files, capsys):
        code, out, _ = run(capsys, "cover", "trace", str(files / "circle_cover.json"), "--cell", "0")
        obj = json.loads(out)
        assert code == 0 and obj["isomorphic"]

    def test_trace_of_a_cell_meeting_a_neighbor_twice_exit_2(self, files, capsys):
        path = files / "two_arcs.json"
        cells = [{"lo": [0], "hi": [2]}, {"lo": ["3/2"], "hi": ["7/2"]}]
        path.write_text(json.dumps({"ambient": 1, "n": 1, "domain": {"periodic": [3]}, "cells": cells}))
        code, out, err = run(capsys, "cover", "trace", str(path), "--cell", "0")
        assert code == 2 and not out
        assert err == "input error: intersection is not a single box\n"

    def test_validate_clique_above_cap_exit_2(self, files, capsys):
        # 30 pairwise-meeting cells have 2^30 subfamilies; the walk stops at
        # the first clique of ten
        path = files / "same30.json"
        cells = [{"lo": [0, 0], "hi": [1, 1]}] * 30
        path.write_text(json.dumps({"ambient": 2, "n": 2, "cells": cells}))
        start = time.perf_counter()
        code, out, err = run(capsys, "cover", "validate", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err == "input error: cover nerve has a clique larger than cap 9\n"


class TestCatalogCli:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        names = json.loads(out)
        assert code == 0 and "torus16" in names

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "rp11")
        obj = json.loads(out)
        assert code == 0
        assert obj["validation"]["ok"] and len(obj["graph"]["vertices"]) == 11

    def test_show_validates_once(self, capsys, monkeypatch):
        from digitopo import catalog

        calls, real = [], catalog.validate
        monkeypatch.setattr(catalog, "validate", lambda e: calls.append(e.name) or real(e))
        monkeypatch.setattr(catalog.get("torus16"), "_report", None)
        code, out, _ = run(capsys, "catalog", "show", "torus16")
        assert code == 0 and json.loads(out)["validation"]["ok"]
        assert calls == ["torus16"]

    def test_unknown_exit_2(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "zzz")
        assert code == 2 and "unknown catalog entry" in err


class TestDigitize:
    def test_circle_pipeline(self, files, capsys):
        code, out, _ = run(capsys, "digitize", str(files / "circle.json"))
        obj = json.loads(out)
        assert code == 0
        assert obj["euler"] == 0 and obj["betti_q"] == [1, 1]

    def test_pitch_override_and_csv(self, files, capsys):
        code, out, _ = run(
            capsys,
            "digitize",
            str(files / "circle.json"),
            "--pitch",
            "1/4",
            "--dump-csv",
            str(files / "mask.csv"),
        )
        assert code == 0
        assert (files / "mask.csv").exists()


class TestMalformedRationals:
    """A rational that does not parse, or has a zero denominator, is an input
    error; it used to escape as a ValueError or ZeroDivisionError."""

    @pytest.mark.parametrize("pitch", ["abc", "1/0"])
    def test_pitch_option_exit_2(self, files, capsys, pitch):
        code, out, err = run(capsys, "digitize", str(files / "circle.json"), "--pitch", pitch)
        assert code == 2 and not out
        assert err == f"input error: --pitch: cannot read rational value '{pitch}'\n"

    def test_shape_constant_exit_2(self, files, capsys):
        path = files / "zero.json"
        shape = json.loads((files / "circle.json").read_text())
        shape["expr"] = ["-", ["square", "x"], "1/0"]
        path.write_text(json.dumps(shape))
        code, out, err = run(capsys, "digitize", str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: constant '1/0' is not a valid rational\n"

    def test_window_bound_exit_2(self, files, capsys):
        path = files / "window.json"
        shape = json.loads((files / "circle.json").read_text())
        shape["window"]["lo"][0] = "q"
        path.write_text(json.dumps(shape))
        code, out, err = run(capsys, "digitize", str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: cannot read rational value 'q'\n"

    @pytest.mark.parametrize("bound", ["q", "1/0"])
    def test_cover_bound_exit_2(self, files, capsys, bound):
        path = files / "cover.json"
        cover = json.loads((files / "circle_cover.json").read_text())
        cover["cells"][0]["hi"] = [bound]
        path.write_text(json.dumps(cover))
        code, out, err = run(capsys, "cover", "validate", str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: cannot read rational value '{bound}'\n"


class TestOversizedWindow:
    def test_window_above_the_cube_cap_exit_2(self, files, capsys):
        path = files / "huge.json"
        shape = json.loads((files / "circle.json").read_text())
        shape["window"] = {"lo": [0, 0], "hi": [1000, 1000]}
        path.write_text(json.dumps(shape))
        start = time.perf_counter()
        code, out, err = run(capsys, "digitize", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == (
            "input error: window holds 4000000 cubes at pitch 1/2, above the cap of 100000\n"
        )


class TestDegreeCap:
    @pytest.mark.parametrize("op", ["square", "*"])
    def test_degree_doubling_chain_exit_2(self, files, capsys, op):
        # each level doubles the integer degree; 29 nested squares took 10 s
        # on a one-cube window before the cap
        expr, levels = "x", 29 if op == "square" else 12
        for _ in range(levels):
            expr = ["square", expr] if op == "square" else ["*", expr, expr]
        path = files / "high_degree.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "region",
                    "expr": ["-", expr, 3],
                    "window": {"lo": [0], "hi": [1]},
                    "pitch": 1,
                }
            )
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "digitize", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == "input error: expression has degree 128, above the cap of 64\n"


class TestCompleteGraphs:
    """A complete graph is a cone: no surface, sphere or manifold, decided
    without a rim recursion as deep as the graph is large."""

    @pytest.mark.parametrize("k", [300, 500])
    @pytest.mark.parametrize("mode", [[], ["--kind", "sphere"], ["--kind", "manifold"]])
    def test_complete_graph_exit_1_with_first_witness(self, files, capsys, k, mode):
        vs = [f"v{i}" for i in range(k)]
        path = files / f"k{k}.json"
        path.write_text(
            json.dumps(
                {"vertices": vs, "edges": [[a, b] for i, a in enumerate(vs) for b in vs[i + 1 :]]}
            )
        )
        argv = ["classify", str(path)] + (mode + ["--dim", str(k)] if mode else [])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 1 and not err
        assert out == '{"dimension":null,"kind":"None","witness":"v0"}\n'


class TestDeepNesting:
    def test_deep_expression_exit_2(self, files, capsys):
        expr = '["-", ' * 600 + '"x"' + "]" * 600
        path = files / "deep_expr.json"
        path.write_text(
            '{"kind": "region", "window": {"lo": [-1], "hi": [1]}, "pitch": 1, "expr": ' + expr + "}"
        )
        code, out, err = run(capsys, "digitize", str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: expression nested deeper than 100 operations\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["classify"], '{"vertices": %s, "edges": []}'),
            (["digitize"], '{"kind": "region", "expr": %s}'),
            (["cover", "validate"], '{"ambient": 1, "n": 1, "cells": %s}'),
            (["replay", "c4.json"], "%s"),
        ],
        ids=["graph", "shape", "cover", "trace"],
    )
    def test_deep_json_exit_2(self, files, capsys, argv, text):
        path = files / "deep.json"
        path.write_text(text % ("[" * 3000 + "]" * 3000))
        args = [str(files / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *args, str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: JSON nested too deeply\n"

    def test_deep_rims_exit_2(self, files, capsys):
        """Each rim level of `reduce` on a minimal sphere takes a few frames;
        under a limit 200 frames above the caller's, the 60-sphere (122
        vertices) runs out of them."""
        path = files / "sphere60.json"
        path.write_text(json.dumps(graph_to_obj(minimal_sphere(60))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 200)
        try:
            code, out, err = run(capsys, "reduce", str(path))
        finally:
            sys.setrecursionlimit(limit)
        assert code == 2 and not out
        assert err == "input error: input too deep for the recursion limit\n"

    @pytest.mark.parametrize(
        "command, target",
        [("classify", "classify"), ("reduce", "reduce_graph"), ("invariants", "invariant_report")],
    )
    def test_memory_error_exits_2(self, files, capsys, monkeypatch, command, target):
        """Running out of memory is an input too large, not a failed
        property: one input error line, exit 2, nothing on stdout."""
        from digitopo import cli

        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        code, out, err = run(capsys, command, str(files / "oct.json"))
        assert code == 2 and not out
        assert err == "input error: input too large for the available memory\n"


class TestDeterminismAndDot:
    def test_byte_identical_runs(self, files, capsys):
        _, out1, _ = run(capsys, "invariants", str(files / "oct.json"))
        _, out2, _ = run(capsys, "invariants", str(files / "oct.json"))
        assert out1 == out2

    def test_export_dot_round_trip(self, files, capsys):
        """Labels survive, an isolated vertex's included: a DOT vertex
        statement ``"c";`` re-imports as ``c``."""
        (files / "isolated.json").write_text(
            json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
        )
        for name in ("c4.json", "isolated.json"):
            code, out, _ = run(capsys, "export-dot", str(files / name))
            assert code == 0
            reimported = parse_edge_list(out)
            original = graph_from_obj(json.loads((files / name).read_text()))
            assert sorted(reimported.vertices) == sorted(original.vertices), name
            assert reimported.edges() == original.edges(), name

    def test_reduce_of_an_exported_dot_names_the_isolated_vertex(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}))
        _, dot, _ = run(capsys, "export-dot", str(path))
        (tmp_path / "g.dot").write_text(dot)
        code, out, _ = run(capsys, "reduce", str(tmp_path / "g.dot"))
        assert code == 0
        assert json.loads(out)["residue"] == {"edges": [], "vertices": ["b", "c"]}

    def test_dot_labels_with_quotes_escapes_comments_and_dashes(self, tmp_path, capsys):
        """A label holding a space, ``#``, ``--``, ``"`` or a backslash
        survives `export-dot` and a re-import: `reduce` of the DOT file
        prints what `reduce` of the JSON file prints."""
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["a b", "c#d", "e--f", 'g"h', "i", "j\\k"],
                    "edges": [["a b", "c#d"], ["c#d", "e--f"], ["i", "j\\k"]],
                }
            )
        )
        _, dot, _ = run(capsys, "export-dot", str(path))
        (tmp_path / "g.dot").write_text(dot)
        want = run(capsys, "reduce", str(path))
        assert run(capsys, "reduce", str(tmp_path / "g.dot")) == want
        assert json.loads(want[1])["residue"]["vertices"] == ["e--f", 'g"h', "j\\k"]

    def test_dot_labels_with_line_breaks(self, tmp_path, capsys):
        """A label holding a character that `str.splitlines` breaks on, or
        a backslash before ``n``, survives `export-dot` and a re-import."""
        labels = ["a\nb", "c\r\nd", "e\x0bf", "g\u2028h", "i\\nj"]
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"vertices": labels, "edges": [list(p) for p in zip(labels, labels[1:])]})
        )
        _, dot, _ = run(capsys, "export-dot", str(path))
        assert len(dot.splitlines()) == 6
        (tmp_path / "g.dot").write_text(dot)
        want = run(capsys, "reduce", str(path))
        assert want[0] == 0
        assert run(capsys, "reduce", str(tmp_path / "g.dot")) == want

    def test_export_dot_refuses_a_label_with_a_lone_surrogate(self, tmp_path, capsys):
        """DOT is UTF-8 text, which cannot hold a lone surrogate: the label
        is named in an input error and nothing goes to stdout, while
        `reduce` of the same file still answers."""
        path = tmp_path / "g.json"
        path.write_text('{"vertices":["a\\ud800","b"],"edges":[["a\\ud800","b"]]}')
        code, out, err = run(capsys, "export-dot", str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: label 'a\\ud800' has no UTF-8 encoding\n"
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert json.loads(out)["residue"] == {"edges": [], "vertices": ["b"]}

    def test_dot_escapes_inside_quotes_only_and_never_a_surrogate(self):
        g = parse_edge_list('"a\\u0041\\ud800" -- b\\n\n"c\\u2028"\n')
        assert sorted(g.vertices) == ["aA\\ud800", "b\\n", "c\u2028"]

    def test_edge_list_lines_without_quotes(self):
        g = parse_edge_list("a b\nb -- c d # note\n# whole line\ngraph G {\n e;\n}\n")
        assert sorted(g.vertices) == ["a", "b", "c d", "e"]
        assert sorted(g.edges()) == [("a", "b"), ("b", "c d")]

    def test_edge_list_quoted_labels(self):
        g = parse_edge_list('"x y" "#z" # "w"\n"p--q" -- "r\\"s";\n"t\\\\";\n')
        assert sorted(g.vertices) == ["#z", "p--q", 'r"s', "t\\", "x y"]
        with pytest.raises(GraphError, match="unterminated quote"):
            parse_edge_list('"a -- b\n')

    def test_seed_flag_accepted_and_ignored(self, files, capsys):
        code, out, _ = run(capsys, "--seed", "7", "invariants", str(files / "c4.json"))
        assert code == 0


class TestMalformedFields:
    """Each of these escaped as a traceback with exit 1."""

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (
                ["invariants"],
                {"vertices": ["a"], "edges": 5},
                "'edges' must be an array of 2-element string arrays",
            ),
            (
                ["cover", "validate"],
                {"ambient": 1, "n": 1, "domain": 5, "cells": [{"lo": [0], "hi": [1]}]},
                "cover 'domain' must be an object, got 5",
            ),
            (
                ["cover", "validate"],
                {"ambient": 1, "n": 1, "domain": {"periodic": 5}, "cells": [{"lo": [0], "hi": [1]}]},
                "'periodic' must be an array, got 5",
            ),
            (
                ["cover", "nerve"],
                {"ambient": 1, "n": "1", "cells": [{"lo": [0], "hi": [1]}]},
                "cover 'n' must be an integer, got '1'",
            ),
            (
                ["digitize"],
                {"kind": "curve", "points": 5, "window": {"lo": [0], "hi": [1]}, "pitch": 1},
                "curve 'points' must be an array of coordinate arrays",
            ),
            (
                ["cover", "validate"],
                {"ambient": 2, "n": 2, "cells": [{"lo": "00", "hi": "11"}]},
                "lo and hi must be coordinate lists, got '00' and '11'",
            ),
            (
                ["cover", "validate"],
                {"ambient": 2, "n": 2, "cells": [{"lo": {"a": 0, "b": 0}, "hi": [1, 1]}]},
                "lo and hi must be coordinate lists, got {'a': 0, 'b': 0} and [1, 1]",
            ),
            (
                ["digitize"],
                {"kind": "region", "expr": "x", "window": {"lo": "00", "hi": "11"}, "pitch": 1},
                "lo and hi must be coordinate lists, got '00' and '11'",
            ),
            (
                ["digitize"],
                {"kind": "region", "expr": "x", "window": {"lo": [0, 0], "hi": {"a": 1, "b": 2}}, "pitch": 1},
                "lo and hi must be coordinate lists, got [0, 0] and {'a': 1, 'b': 2}",
            ),
        ],
        ids=[
            "graph-edges",
            "cover-domain",
            "cover-periodic",
            "cover-n",
            "curve-points",
            "cover-cell-string",
            "cover-cell-object",
            "window-string",
            "window-object",
        ],
    )
    def test_wrong_type_exit_2(self, files, capsys, argv, doc, message):
        path = files / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv", [["invariants"], ["digitize"], ["cover", "validate"]], ids=["graph", "shape", "cover"]
    )
    def test_file_that_is_not_utf8_exit_2(self, files, capsys, argv):
        path = files / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and not out
        assert err == f"input error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_csv_dump_into_a_missing_directory_exit_2(self, files, capsys):
        target = files / "missing" / "x.csv"
        code, out, err = run(capsys, "digitize", str(files / "circle.json"), "--dump-csv", str(target))
        assert code == 2 and not out
        assert err.startswith("input error: --dump-csv: [Errno 2] No such file or directory")

    def test_curve_far_outside_the_window_exit_0_quickly(self, files, capsys):
        path = files / "long.json"
        shape = {"kind": "curve", "points": [[0], [10**9]], "window": {"lo": [0], "hi": [1]}, "pitch": 1}
        path.write_text(json.dumps(shape))
        start = time.perf_counter()
        code, out, _ = run(capsys, "digitize", str(path))
        assert time.perf_counter() - start < 2
        assert code == 0 and json.loads(out)["cubes"] == 1


# ---------------------------------------------------------------------------
# fuzzing every subcommand in-process
#
# Each input file is either a well-formed document or one made malformed in
# a way the readers must reject: a value of the wrong type at a known place,
# a missing field, a truncated JSON text, or bytes that are not UTF-8.

_C4 = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
_CIRCLE = {
    "kind": "hypersurface",
    "expr": ["-", ["+", ["square", "x"], ["square", "y"]], 1],
    "window": {"lo": [-2, -2], "hi": [2, 2]},
    "pitch": 1,
}
_CURVE = {"kind": "curve", "points": [[0, 0], ["3/2", 1]], "window": {"lo": [-1, -1], "hi": [2, 2]}, "pitch": "1/2"}
_COVER = {
    "ambient": 1,
    "n": 1,
    "domain": {"periodic": ["6"]},
    "cells": [{"lo": [i], "hi": [i + 1]} for i in range(6)],
}
_TRACE = [{"op": "attach-point", "v": "e", "rim": ["a", "b"]}, {"op": "delete-point", "v": "e"}]

_NOT_A_LABEL = [5, None, [], {}, True, 1.5]
_NOT_A_NUMBER = [None, [], {}, True, "q", "1/0"]
_NOT_A_LIST = [5, None, "q", {}, True]

# (well-formed document, [(path, values that are malformed there), ...])
_DOCS = {
    "graph": (
        _C4,
        [
            (["vertices"], _NOT_A_LIST + [[1], [["a"]]]),
            (["vertices", 0], _NOT_A_LABEL),
            (["edges"], _NOT_A_LIST),
            (["edges", 0], _NOT_A_LIST + [["a"], ["a", "b", "c"], ["a", "a"]]),
            (["edges", 0, 1], _NOT_A_LABEL + ["zz"]),
        ],
    ),
    "shape": (
        _CIRCLE,
        [
            ([], _NOT_A_LIST + [[]]),
            (["kind"], ["sphere"] + _NOT_A_LABEL),
            (["expr"], [None, {}, [], True, "w", [5], ["pow", "x"], ["+", "x"]]),
            (["expr", 1, 1], [None, {}, [], True, "w", "1/0", ["abs"]]),
            (["window"], _NOT_A_LIST + [[], {"lo": [0, 0]}]),
            (["window", "lo"], _NOT_A_LIST + [[0], [None, 0]]),
            (["window", "hi", 0], _NOT_A_NUMBER + [-5]),
            (["pitch"], _NOT_A_NUMBER),
        ],
    ),
    "curve": (
        _CURVE,
        [
            (["points"], _NOT_A_LIST + [[[0, 0]], [[0, 0], 5]]),
            (["points", 1], _NOT_A_LIST + [[0], [0, 0, 0]]),
            (["points", 0, 1], _NOT_A_NUMBER),
        ],
    ),
    "cover": (
        _COVER,
        [
            ([], _NOT_A_LIST + [[]]),
            (["ambient"], ["1", None, 1.5, True, [], 2]),
            (["n"], ["1", None, 1.5, True, [], 0, 2]),
            (["domain"], [5, None, "q", True, []]),
            (["domain", "periodic"], _NOT_A_LIST + [[None, None]]),
            (["domain", "periodic", 0], [[], {}, True, "q", "1/0", 0, -1]),
            (["cells"], _NOT_A_LIST + [[]]),
            (["cells", 2], _NOT_A_LIST + [[], {"lo": [0]}]),
            (["cells", 2, "lo"], _NOT_A_LIST + [[], [0, 0]]),
            (["cells", 2, "hi", 0], _NOT_A_NUMBER + [-1]),
        ],
    ),
    "trace": (
        _TRACE,
        [
            ([], _NOT_A_LIST),
            ([0], _NOT_A_LIST + [[], {}]),
            ([0, "op"], ["zap"] + _NOT_A_LABEL),
            ([0, "v"], _NOT_A_LABEL),
            ([0, "rim"], _NOT_A_LIST + [["a", 5]]),
            ([1, "v"], _NOT_A_LABEL),
        ],
    ),
}

# subcommand -> (argv before the file, document kind, valid extra options)
_COMMANDS = [
    (["classify"], "graph", [[], ["--dim", "1"], ["--dim", "2", "--kind", "sphere"]]),
    (["reduce"], "graph", [[]]),
    (["invariants"], "graph", [[]]),
    (["export-dot"], "graph", [[]]),
    (["digitize"], "shape", [[], ["--pitch", "1/2"]]),
    (["digitize"], "curve", [[]]),
    (["cover", "validate"], "cover", [[]]),
    (["cover", "nerve"], "cover", [[]]),
    (["cover", "trace"], "cover", [["--cell", "0"]]),
    (["replay", "GRAPH"], "trace", [[]]),
]


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def _cli_cases(draw):
    """(argv with a FILE placeholder, file bytes, well-formed?)."""
    argv, kind, options = draw(st.sampled_from(_COMMANDS))
    argv = argv + ["FILE"] + draw(st.sampled_from(options))
    doc, places = _DOCS[kind]
    text = json.dumps(doc)
    how = draw(st.sampled_from(["none", "none", "retype", "retype", "drop", "truncate", "bytes"]))
    if how == "none":
        if kind == "graph" and draw(st.booleans()):
            text = "a b\nb c\nc d\nd a\n"
        return argv, text.encode(), True
    if how == "retype":
        path, values = draw(st.sampled_from(places))
        text = json.dumps(_set(doc, path, draw(st.sampled_from(values))))
    elif how == "drop":
        path = draw(st.sampled_from([p for p, _ in places if p and isinstance(p[-1], str)]))
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        if path in (["edges"], ["domain"], ["domain", "periodic"]) or "--pitch" in argv and path == ["pitch"]:
            # optional fields: dropping one leaves a well-formed document
            return argv, json.dumps(doc).encode(), True
        text = json.dumps(doc)
    elif how == "truncate":
        # any proper prefix of an object or array text is malformed JSON,
        # and a graph file that starts with "{" is read as JSON
        text = text[: draw(st.integers(1, len(text) - 1))]
    else:
        return argv, b"\xff\xfe" + text.encode(), False
    if kind == "graph" and how != "truncate" and draw(st.booleans()):
        # an edge list with a line of three names
        text = "a b\nb c d\n"
    return argv, text.encode(), False


class TestFuzz:
    @settings(max_examples=250, deadline=None)
    @given(_cli_cases())
    def test_every_subcommand_rejects_malformed_input(self, tmp_path_factory, case):
        argv, data, well_formed = case
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "input").write_bytes(data)
        (tmp / "graph.json").write_text(json.dumps(_C4))
        argv = [str(tmp / "input") if a == "FILE" else str(tmp / "graph.json") if a == "GRAPH" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if well_formed:
            assert code in (0, 1), (argv, data, err.getvalue())
        else:
            assert code == 2, (argv, data, out.getvalue())
            assert not out.getvalue() and err.getvalue().startswith("input error: ")
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("name", ["rp11", "klein16", "moebius12", "sphere_min_2", "zzz"])
    def test_catalog_show(self, capsys, name):
        code, out, err = run(capsys, "catalog", "show", name)
        if name == "zzz":
            assert code == 2 and not out and err.startswith("input error: ")
        else:
            assert code == 0 and json.loads(out)["validation"]["ok"]
