"""Catalog entries re-prove their expected properties from scratch."""

import dataclasses

import pytest

from conftest import complete_graph
from digitopo.catalog import CatalogEntry, get, names, validate
from digitopo.classify import is_n_manifold, is_n_sphere
from digitopo.graph import canonical_key, components, induced_subgraph, rim
from digitopo.homotopy import is_contractible
from digitopo.invariants import euler_characteristic, homology


EXPECTED_SIZES = {
    "torus16": 16,
    "klein16": 16,
    "rp11": 11,
    "moebius12": 12,
}


class TestCatalogBasics:
    def test_names(self):
        got = set(names())
        assert {"torus16", "klein16", "rp11", "moebius12", "icosahedron"} <= got
        assert {f"sphere_min_{n}" for n in range(5)} <= got

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get("nonexistent")

    def test_all_entries_validate(self):
        for name in names():
            entry = get(name)  # get() raises if validation fails
            report = validate(entry)
            assert report["ok"], (name, report["failures"])

    def test_minimal_sizes_from_the_abstract(self):
        for name, size in EXPECTED_SIZES.items():
            assert get(name).graph.order == size

    def test_sphere_min_2_is_octahedron_size(self):
        e = get("sphere_min_2")
        assert e.graph.order == 6 and e.graph.size == 12

    def test_missing_boundary_is_reported_not_raised(self):
        # a band or disk entry without a boundary reads it as empty, so its
        # boundary checks fail and the contractibility check still runs
        band = validate(dataclasses.replace(get("moebius12"), boundary=None, _report=None))
        assert not band["ok"]
        assert "boundary forms 1 cycle(s)" in band["failures"]
        assert "interior rims are cycles" in band["failures"]
        for name, dim in (("disk_path3", 1), ("disk_oct5", 2)):
            disk = validate(dataclasses.replace(get(name), boundary=None, _report=None))
            assert disk["failures"] == [f"is_n_disk(dim {dim})"], name
            assert "contractible" in disk["checks"], name

    def test_band_rims_are_read_by_the_recognizers(self):
        # every rim of K4 is a triangle and every rim of a triangle an edge:
        # a chordless cycle and a path, but no 1-sphere and no 1-disk
        def band(g, boundary, cycles):
            exp = {"kind": "band", "vertices": g.order, "euler": 1, "boundary_cycles": cycles}
            return validate(CatalogEntry("band", g, exp, "test", tuple(boundary)))

        assert band(complete_graph(4), (), 0)["failures"] == ["interior rims are cycles"]
        triangle = complete_graph(3)
        assert band(triangle, triangle.vertices, 1)["failures"] == ["boundary rims are paths"]


class TestTorus16:
    def test_rims_are_chordless_hexagons(self):
        g = get("torus16").graph
        for v in g.vertices:
            r = rim(g, v)
            assert r.order == 6 and r.size == 6
            assert all(r.degree(w) == 2 for w in r.vertices)

    def test_vertex_transitive_spotcheck(self):
        g = get("torus16").graph
        keys = set()
        for v in g.vertices:
            rest = induced_subgraph(g, [w for w in g.vertices if w != v])
            keys.add(canonical_key(rest))
        assert len(keys) == 1

    def test_invariants(self):
        g = get("torus16").graph
        assert euler_characteristic(g) == 0
        assert homology(g).betti_q == (1, 2, 1)


class TestKlein16:
    def test_manifold_with_klein_homology(self):
        g = get("klein16").graph
        assert is_n_manifold(g, 2).ok
        prof = homology(g)
        assert prof.betti_q == (1, 1, 0)
        assert prof.betti_z2 == (1, 2, 1)
        assert prof.torsion == ((), (2,), ())

    def test_not_isomorphic_to_torus(self):
        assert canonical_key(get("klein16").graph) != canonical_key(get("torus16").graph)


class TestRp11:
    def test_manifold_with_projective_homology(self):
        g = get("rp11").graph
        assert g.order == 11
        assert is_n_manifold(g, 2).ok
        prof = homology(g)
        assert prof.betti_q == (1, 0, 0)
        assert prof.betti_z2 == (1, 1, 1)
        assert prof.torsion == ((), (2,), ())
        assert euler_characteristic(g) == 1


class TestMoebius12:
    def test_boundary_structure(self):
        e = get("moebius12")
        g = e.graph
        boundary = set(e.boundary)
        assert len(boundary) == 8
        sub = induced_subgraph(g, boundary)
        assert all(sub.degree(v) == 2 for v in sub.vertices)
        assert len(components(sub)) == 1  # one circle: the Moebius signature

    def test_interior_vs_boundary_rims(self):
        e = get("moebius12")
        g = e.graph
        boundary = set(e.boundary)
        for v in g.vertices:
            r = rim(g, v)
            degs = sorted(r.degree(w) for w in r.vertices)
            if v in boundary:
                assert degs == [1, 1, 2, 2]  # path
            else:
                assert degs == [2] * 6  # cycle

    def test_circle_homotopy_type(self):
        g = get("moebius12").graph
        assert euler_characteristic(g) == 0
        assert homology(g).betti_q == (1, 1, 0)


class TestSpheresMinusPoint:
    def test_catalog_spheres_deleted_vertex_contractible(self):
        for name in ["sphere_min_1", "sphere_min_2", "sphere_min_3", "icosahedron"]:
            g = get(name).graph
            for v in g.vertices:
                rest = induced_subgraph(g, [w for w in g.vertices if w != v])
                assert is_contractible(rest), (name, v)

    def test_icosahedron_sphere(self):
        g = get("icosahedron").graph
        assert is_n_sphere(g, 2).ok
        for v in g.vertices:
            r = rim(g, v)
            assert r.order == 5 and r.size == 5
