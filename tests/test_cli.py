"""Command-line interface: subcommands, exit codes, determinism."""

import json
import time

import pytest

from digitopo.cli import main
from digitopo.graph import canonical_key
from digitopo.io import graph_from_obj, parse_edge_list


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


class TestDeterminismAndDot:
    def test_byte_identical_runs(self, files, capsys):
        _, out1, _ = run(capsys, "invariants", str(files / "oct.json"))
        _, out2, _ = run(capsys, "invariants", str(files / "oct.json"))
        assert out1 == out2

    def test_export_dot_round_trip(self, files, capsys):
        code, out, _ = run(capsys, "export-dot", str(files / "c4.json"))
        assert code == 0
        reimported = parse_edge_list(out)
        original = graph_from_obj(json.loads((files / "c4.json").read_text()))
        assert canonical_key(reimported) == canonical_key(original)

    def test_seed_flag_accepted_and_ignored(self, files, capsys):
        code, out, _ = run(capsys, "--seed", "7", "invariants", str(files / "c4.json"))
        assert code == 0
