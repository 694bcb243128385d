"""Pure and compiled kernels must agree bit for bit.

When the compiled extension is not installed, the shipped
`src/digitopo/_kernels/_core.c` is compiled with the system C compiler into
pytest's temporary directory and imported from there; nothing is written
under `src/`, so other imports of the package stay on the pure backend. The
module is skipped only when no C compiler is found.
"""

import importlib
import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from conftest import all_labeled_graphs, cycle_graph, octahedron, random_graph
from digitopo._kernels import _pure

CORE = "digitopo._kernels._core"
CORE_C = Path(_pure.__file__).with_name("_core.c")


def _build_core(out_dir: Path):
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("compiled kernels absent and no C compiler to build _core.c")
    target = out_dir / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", f"-I{include}", str(CORE_C), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location(CORE, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    try:
        return importlib.import_module(CORE)
    except ImportError:
        return _build_core(tmp_path_factory.mktemp("core"))


@pytest.fixture
def both(core):
    def run(fn_name, g, *args):
        n, rows = g.order, g._rows
        return (
            getattr(_pure, fn_name)(n, rows, *args),
            getattr(core, fn_name)(n, rows, *args),
        )

    return run


class TestParity:
    def test_exhaustive_small(self, both):
        for n in range(5):
            for g in all_labeled_graphs(n):
                a, b = both("canon_bytes", g)
                assert a == b
                a, b = both("is_contractible", g)
                assert a == b

    def test_random_graphs(self, both, core):
        rng = random.Random(99)
        for _ in range(250):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            assert both("canon_bytes", g)[0] == both("canon_bytes", g)[1]
            assert both("is_contractible", g)[0] == both("is_contractible", g)[1]
            assert both("contraction_order", g)[0] == both("contraction_order", g)[1]
            try:
                pure_counts = _pure.clique_counts(g.order, g._rows, 9)
            except ValueError:
                with pytest.raises(ValueError):
                    core.clique_counts(g.order, g._rows, 9)
            else:
                assert pure_counts == core.clique_counts(g.order, g._rows, 9)

    def test_symmetric_families(self, both):
        from digitopo.classify import minimal_sphere

        for g in [cycle_graph(7), octahedron(), minimal_sphere(3), minimal_sphere(4)]:
            assert both("canon_bytes", g)[0] == both("canon_bytes", g)[1]

    def test_catalog_graphs(self, both):
        from digitopo.catalog import get, names

        for name in names():
            g = get(name).graph
            assert both("canon_bytes", g)[0] == both("canon_bytes", g)[1]
            assert both("is_contractible", g)[0] == both("is_contractible", g)[1]

    def test_disconnected_multisets(self, both):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 12), 0.15)
            assert both("canon_bytes", g)[0] == both("canon_bytes", g)[1]
