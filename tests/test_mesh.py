"""Mesh core: construction, validation, dual graph, midpoint splits."""

import math

import pytest

from oracles import cube_graph, dual_by_shared_vertices, graphs_isomorphic_small, longest_path_in_tree
from singlestrip.boundary import gen_mk
from singlestrip.generators import fan, octahedron, tetrahedron, torus
from singlestrip.mesh import (
    Mesh,
    MeshError,
    build_dual,
    edge_key,
    insert_centroid,
    split_pair,
    validate,
)


def test_edge_key_canonical():
    assert edge_key(3, 7) == (3, 7)
    assert edge_key(7, 3) == (3, 7)


def test_tetrahedron_counts(tetra):
    assert tetra.n_vertices == 4
    assert tetra.n_triangles == 4
    assert len(tetra.edge_map) == 6
    assert all(len(ts) == 2 for ts in tetra.edge_map.values())


def test_constructor_rejects_bad_index():
    with pytest.raises(MeshError, match="out of range"):
        Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 99)])


def test_constructor_rejects_degenerate():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 1)])


def test_constructor_rejects_duplicate():
    with pytest.raises(MeshError, match="duplicate"):
        Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (2, 0, 1)])
    with pytest.raises(MeshError, match="duplicate"):
        Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (1, 0, 2)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_constructor_rejects_non_finite_coordinates(bad):
    with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
        Mesh([(0, 0, 0), (1, 0, 0), (0, 1, bad), (bad, 0, 1)], [(0, 1, 2)])


def test_kill_and_revive_track_duplicates_by_vertex_set():
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    mesh.kill_triangle(0)
    t = mesh.add_triangle((2, 1, 0))
    with pytest.raises(MeshError, match="would duplicate"):
        mesh.revive_triangle(0)
    mesh.kill_triangle(t)
    mesh.revive_triangle(0)
    assert mesh.alive_ids() == [0]


def test_validate_tetrahedron_closed(tetra):
    assert validate(tetra, "closed").ok


def test_validate_single_triangle_open_edges():
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    report = validate(mesh, "closed")
    assert not report.ok
    assert report.count("open_edge") == 3
    assert validate(mesh, "with_boundary").ok


def test_validate_detects_bad_orientation():
    # two triangles traversing the shared edge (1,2) in the same direction
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2), (1, 2, 3)])
    report = validate(mesh, "with_boundary")
    assert report.count("orientation") == 1
    fixed = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2), (2, 1, 3)])
    assert validate(fixed, "with_boundary").ok


def test_validate_generators():
    for mesh in (tetrahedron(), octahedron(), torus(5, 4), torus(20, 10)):
        assert validate(mesh, "closed").ok
    for mesh in (fan(5), gen_mk(3)):
        assert validate(mesh, "with_boundary").ok


def test_dual_tetrahedron_is_k4(tetra):
    dual = build_dual(tetra)
    assert dual.n == 4
    assert all(dual.degree(t) == 3 for t in dual.nodes())
    assert all(set(dual.neighbors(t)) == set(dual.nodes()) - {t} for t in dual.nodes())


def test_dual_matches_bruteforce_oracle():
    for mesh in (tetrahedron(), octahedron(), torus(4, 3), gen_mk(2), fan(6)):
        dual = build_dual(mesh)
        oracle = dual_by_shared_vertices(mesh)
        assert {t: set(dual.neighbors(t)) for t in dual.nodes()} == oracle


def test_dual_octahedron_is_cube_graph(octa):
    dual = build_dual(octa)
    adj = {t: set(dual.neighbors(t)) for t in dual.nodes()}
    assert graphs_isomorphic_small(adj, cube_graph())


def test_dual_m2_is_tree_with_path_4():
    mesh = gen_mk(2)
    assert mesh.n_triangles == 10
    adj = dual_by_shared_vertices(mesh)
    n_edges = sum(len(v) for v in adj.values()) // 2
    assert n_edges == 9  # tree
    assert longest_path_in_tree(adj) == 4


def test_dual_closed_mesh_is_bridgeless():
    # removing any single dual edge leaves the dual connected
    for mesh in (tetrahedron(), octahedron(), torus(4, 3)):
        dual = build_dual(mesh)
        for u, v, _e in dual.edges():
            seen = {u}
            stack = [u]
            while stack:
                x = stack.pop()
                for y in dual.neighbors(x):
                    if {x, y} == {u, v} or y in seen:
                        continue
                    seen.add(y)
                    stack.append(y)
            assert len(seen) == dual.n, f"edge ({u},{v}) is a bridge"


def test_split_pair_counts(tetra):
    e = next(iter(tetra.edge_map))
    record = split_pair(tetra, e)
    assert tetra.n_vertices == 5
    assert tetra.n_triangles == 6
    assert record.edge == e
    assert len(set(record.children)) == 4


def test_split_pair_midpoint_exact():
    mesh = Mesh(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 1, 2), (1, 0, 3), (0, 2, 3), (2, 1, 3)],
    )
    record = split_pair(mesh, (0, 1))
    assert mesh.vertices[record.midpoint] == (1.0, 0.0, 0.0)


def test_split_pair_children_coplanar_and_area_preserving(torus400):
    mesh = torus400
    for e in list(mesh.edge_map)[:25]:
        parent_areas = {}
        parent_pts = {}
        for t in mesh.edge_triangles(e):
            parent_areas[t] = mesh.triangle_area(t)
            parent_pts[t] = mesh.triangle_points(t)
        record = split_pair(mesh, e)
        for pi, parent in enumerate(record.parents):
            kids = record.children[2 * pi : 2 * pi + 2]
            kid_area = sum(mesh.triangle_area(k) for k in kids)
            assert kid_area == pytest.approx(parent_areas[parent], rel=1e-12)
            for k in kids:
                assert mesh.triangle_area(k) > 0
        mid = mesh.vertices[record.midpoint]
        for parent in record.parents:
            p = parent_pts[parent]
            import numpy as np

            n = np.cross(p[1] - p[0], p[2] - p[0])
            d = abs(float(np.dot(np.asarray(mid) - p[0], n))) / float(np.linalg.norm(n))
            assert d <= 1e-12


def test_split_pair_preserves_orientation(torus400):
    mesh = torus400
    e = next(iter(mesh.edge_map))
    split_pair(mesh, e)
    assert validate(mesh, "closed").ok


def test_split_pair_rejects_boundary_edge():
    mesh = fan(3)
    boundary = mesh.boundary_edges()[0]
    with pytest.raises(MeshError, match="incident to 1"):
        split_pair(mesh, boundary)


def test_euler_bookkeeping_over_splits(octa):
    v0, t0 = octa.n_vertices, octa.n_triangles
    for s in range(1, 6):
        e = sorted(octa.edge_map)[s]
        split_pair(octa, e)
        assert octa.n_vertices == v0 + s
        assert octa.n_triangles == t0 + 2 * s


def test_split_then_collapse_recovers_dual(octa):
    before = {t: set(build_dual(octa).neighbors(t)) for t in octa.alive_ids()}
    e = sorted(octa.edge_map)[0]
    record = split_pair(octa, e)
    # collapse: children -> parents, then compare adjacency to the original
    owner = {}
    for pi, parent in enumerate(record.parents):
        for k in record.children[2 * pi : 2 * pi + 2]:
            owner[k] = parent
    dual = build_dual(octa)
    after = {}
    for t in octa.alive_ids():
        src = owner.get(t, t)
        after.setdefault(src, set())
        for n in dual.neighbors(t):
            tgt = owner.get(n, n)
            if tgt != src:
                after[src].add(tgt)
    assert after == before


def test_insert_centroid_creates_degree3_vertex(ico):
    g, children = insert_centroid(ico, 0)
    incid = ico.vertex_triangles()
    assert incid[g] == set(children)
    assert validate(ico, "closed").ok


def test_compact_remaps_and_preserves():
    mesh = tetrahedron()
    split_pair(mesh, sorted(mesh.edge_map)[0])
    compacted, remap = mesh.compact()
    assert compacted.n_triangles == mesh.n_triangles
    assert sorted(remap) == mesh.alive_ids()
    assert set(remap.values()) == set(range(compacted.n_triangles))
    for old, new in remap.items():
        assert compacted.triangles[new] == mesh.triangles[old]


def test_copy_is_independent(tetra):
    clone = tetra.copy()
    split_pair(clone, sorted(clone.edge_map)[0])
    assert tetra.n_triangles == 4
    assert clone.n_triangles == 6
