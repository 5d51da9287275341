"""Mesh core: construction, validation, dual graph, midpoint splits."""

import random
import re

import pytest

from oracles import (
    build_dual_by_slices,
    cube_graph,
    dual_by_shared_vertices,
    dual_rows,
    edge_triangles,
    flip_edges,
    graphs_isomorphic_small,
    insert_centroid,
    longest_path_in_tree,
    mesh_edges,
    plane_distance,
    punch_holes,
    relabel,
    triangle_area,
    triangle_points,
    vertex_triangles,
    violation_count,
)
from singlestrip.generators import fan, gen_mk, icosphere, octahedron, tetrahedron, torus
from singlestrip.mesh import (
    Mesh,
    MeshError,
    build_dual,
    edge_key,
    split_pair,
    validate,
)
from singlestrip.striploop import _vertex_fans, eliminate_three_cycles, stripify


def test_edge_key_canonical():
    assert edge_key(3, 7) == (3, 7)
    assert edge_key(7, 3) == (3, 7)


def test_tetrahedron_counts(tetra):
    assert tetra.n_vertices == 4
    assert tetra.n_triangles == 4
    assert tetra.n_edges == 6
    assert all(len(edge_triangles(tetra, e)) == 2 for e in mesh_edges(tetra))


def _fin4():
    # four triangles on the edge (0, 1): the table lists the first of them
    # from the other three, and the second from the first
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return Mesh(pts, [(0, 1, 2), (1, 0, 3), (0, 1, 4), (1, 0, 5)])


def _holed_torus():
    mesh = torus(8, 6)
    punch_holes(mesh, (0, 1, 17))
    return mesh


def _centroid_torus():
    mesh = torus(6, 5)
    rng = random.Random(3)
    for _ in range(6):
        insert_centroid(mesh, rng.choice(mesh.alive_ids()))
    return mesh


def _eliminated_torus():
    mesh = _centroid_torus()
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    return mesh


def _split_octahedron():
    mesh = octahedron()
    for _ in range(3):
        e = mesh_edges(mesh)[-1]
        split_pair(mesh, e, edge_triangles(mesh, e))
    return mesh


def _retired_built():
    # a `_built` mesh edited before its table was read
    mesh = stripify(torus(6, 5)).mesh
    for t in (0, 7, 8):
        mesh._retire(t)
    return mesh


@pytest.mark.parametrize("make", [
    _fin4,
    _holed_torus,
    lambda: flip_edges(icosphere(2), random.Random(5), 20),
    _centroid_torus,
    _eliminated_torus,
    _split_octahedron,
    lambda: gen_mk(4),
    lambda: stripify(torus(10, 10)).mesh,
    _retired_built,
    lambda: Mesh([], []),
], ids=["fin4", "holed-torus", "flipped-icosphere", "centroid-torus", "eliminated-torus",
        "split-octahedron", "mk4", "built", "retired-built", "empty"])
def test_n_edges_counts_the_distinct_edges(make):
    # read off the table: exact for constructor tables, non-manifold edges
    # included, and for tables the edits left; a `_built` mesh counts its
    # edge keys and leaves its table unsorted
    mesh = make()
    unsorted = mesh._neighbours is None
    assert mesh.n_edges == len(mesh_edges(mesh))
    assert (mesh._neighbours is None) == unsorted


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


def test_validate_tetrahedron_closed(tetra):
    assert validate(tetra, "closed").ok


def test_validate_single_triangle_open_edges():
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    report = validate(mesh, "closed")
    assert not report.ok
    assert violation_count(report, "open_edge") == 3
    assert validate(mesh, "with_boundary").ok


def test_validate_detects_bad_orientation():
    # two triangles traversing the shared edge (1,2) in the same direction
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2), (1, 2, 3)])
    report = validate(mesh, "with_boundary")
    assert violation_count(report, "orientation") == 1
    fixed = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1, 2), (2, 1, 3)])
    assert validate(fixed, "with_boundary").ok


def test_validate_generators():
    for mesh in (tetrahedron(), octahedron(), torus(5, 4), torus(20, 10)):
        assert validate(mesh, "closed").ok
    for mesh in (fan(5), gen_mk(3)):
        assert validate(mesh, "with_boundary").ok


def test_dual_tetrahedron_is_k4(tetra):
    dual = build_dual(tetra)
    assert len(dual) == 4
    assert all(len(nbrs) == 3 for nbrs in dual.values())
    assert all(set(nbrs) == set(dual) - {t} for t, nbrs in dual.items())


def test_dual_matches_bruteforce_oracle():
    for mesh in (tetrahedron(), octahedron(), torus(4, 3), gen_mk(2), fan(6)):
        dual = build_dual(mesh)
        oracle = dual_by_shared_vertices(mesh)
        assert {t: set(nbrs) for t, nbrs in dual.items()} == oracle


def test_dual_sets_are_filled_in_slot_order():
    # the greedy queues nodes in the order it iterates these sets, which
    # follows the order they were filled in: on the relabelled torus, sets
    # filled from sorted rows iterate otherwise
    for mesh in (torus(4, 3), gen_mk(3), relabel(torus(6, 5), random.Random(1))):
        want = {t: list(set(row)) for t, row in dual_rows(mesh).items()}
        assert {t: list(nbrs) for t, nbrs in build_dual(mesh).items()} == want


@pytest.mark.parametrize("make", [_holed_torus, _eliminated_torus, lambda: fan(6), lambda: gen_mk(3)],
                         ids=["holed-torus", "eliminated-torus", "fan6", "mk3"])
def test_dual_equals_the_sets_from_row_slices(make):
    # rows holding -1 and dead slots: the same sets, iterating alike
    mesh = make()
    got, want = build_dual(mesh), build_dual_by_slices(mesh)
    assert list(got) == list(want)
    assert all(list(got[t]) == list(want[t]) for t in want)


def test_dual_octahedron_is_cube_graph(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
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
        for u, v in ((u, v) for u, nbrs in dual.items() for v in nbrs if u < v):
            seen = {u}
            stack = [u]
            while stack:
                x = stack.pop()
                for y in dual[x]:
                    if {x, y} == {u, v} or y in seen:
                        continue
                    seen.add(y)
                    stack.append(y)
            assert len(seen) == len(dual), f"edge ({u},{v}) is a bridge"


def test_split_pair_counts(tetra):
    e = mesh_edges(tetra)[0]
    children = split_pair(tetra, e, edge_triangles(tetra, e))
    assert tetra.n_vertices == 5
    assert tetra.n_triangles == 6
    assert len(set(children)) == 4


def test_split_pair_midpoint_exact():
    mesh = Mesh(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 1, 2), (1, 0, 3), (0, 2, 3), (2, 1, 3)],
    )
    split_pair(mesh, (0, 1), edge_triangles(mesh, (0, 1)))
    assert mesh.vertices[mesh.n_vertices - 1] == (1.0, 0.0, 0.0)


def test_split_pair_children_coplanar_and_area_preserving(torus400):
    mesh = torus400
    for e in mesh_edges(mesh)[:25]:
        parent_areas = {}
        parent_pts = {}
        pair = edge_triangles(mesh, e)
        for t in pair:
            parent_areas[t] = triangle_area(mesh, t)
            parent_pts[t] = triangle_points(mesh, t)
        children = split_pair(mesh, e, pair)
        parents = sorted(pair)
        for pi, parent in enumerate(parents):
            kids = children[2 * pi : 2 * pi + 2]
            kid_area = sum(triangle_area(mesh, k) for k in kids)
            assert kid_area == pytest.approx(parent_areas[parent], rel=1e-12)
            for k in kids:
                assert triangle_area(mesh, k) > 0
        mid = mesh.vertices[mesh.n_vertices - 1]
        for parent in parents:
            # the parent is dead but keeps its vertex triple
            assert plane_distance(mesh, parent, mid) <= 1e-12


def test_split_pair_preserves_orientation(torus400):
    mesh = torus400
    e = mesh_edges(mesh)[0]
    split_pair(mesh, e, edge_triangles(mesh, e))
    assert validate(mesh, "closed").ok


def test_split_pair_rejects_boundary_edge():
    mesh = fan(3)
    boundary = mesh.boundary_edges()[0]
    (t,) = edge_triangles(mesh, boundary)
    other = next(o for o in mesh.alive_ids() if o != t)
    before = mesh.copy()
    with pytest.raises(MeshError, match=re.escape(f"edge {boundary} not found in triangle {other}")):
        split_pair(mesh, boundary, (t, other))
    assert (mesh.vertices, mesh.alive, mesh.neighbours) == (
        before.vertices, before.alive, before.neighbours
    )


def test_euler_bookkeeping_over_splits(octa):
    v0, t0 = octa.n_vertices, octa.n_triangles
    for s in range(1, 6):
        e = sorted(mesh_edges(octa))[s]
        split_pair(octa, e, edge_triangles(octa, e))
        assert octa.n_vertices == v0 + s
        assert octa.n_triangles == t0 + 2 * s


def test_split_then_collapse_recovers_dual(octa):
    before = {t: set(nbrs) for t, nbrs in build_dual(octa).items()}
    e = sorted(mesh_edges(octa))[0]
    pair = edge_triangles(octa, e)
    children = split_pair(octa, e, pair)
    # collapse: children -> parents, then compare adjacency to the original
    owner = {}
    for pi, parent in enumerate(sorted(pair)):
        for k in children[2 * pi : 2 * pi + 2]:
            owner[k] = parent
    dual = build_dual(octa)
    after = {}
    for t in octa.alive_ids():
        src = owner.get(t, t)
        after.setdefault(src, set())
        for n in dual[t]:
            tgt = owner.get(n, n)
            if tgt != src:
                after[src].add(tgt)
    assert after == before


def test_insert_centroid_creates_degree3_vertex(ico):
    g, children = insert_centroid(ico, 0)
    incid = vertex_triangles(ico)
    assert incid[g] == set(children)
    assert validate(ico, "closed").ok


def test_compact_remaps_and_preserves():
    mesh = tetrahedron()
    e = sorted(mesh_edges(mesh))[0]
    split_pair(mesh, e, edge_triangles(mesh, e))
    compacted, remap = mesh.compact()
    assert compacted.n_triangles == mesh.n_triangles
    assert sorted(remap) == mesh.alive_ids()
    assert set(remap.values()) == set(range(compacted.n_triangles))
    for old, new in remap.items():
        assert compacted.triangles[new] == mesh.triangles[old]


def test_copy_is_independent(tetra):
    clone = tetra.copy()
    e = sorted(mesh_edges(clone))[0]
    split_pair(clone, e, edge_triangles(clone, e))
    assert tetra.n_triangles == 4
    assert clone.n_triangles == 6
