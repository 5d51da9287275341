"""The table-backed mesh against the dict-based oracle: neighbour lists,
validation reports, the triangles on each edge and edit results, on random
triangle soups (boundaries, non-manifold and mis-oriented edges, duplicates,
several components) and closed meshes, through random sequences of centroid
insertions and splits of a known pair. Edits touch only triangles whose
edges have at most two triangles, as the pipeline's own edits do."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DictMesh,
    dict_insert_centroid,
    dict_neighbours,
    dict_split_pair,
    dict_validate,
    dual_rows,
    edge_triangles,
    insert_centroid,
    other_triangle,
    relabel,
    triangle_edges,
)
from singlestrip.generators import gen_mk, octahedron, torus
from singlestrip.mesh import (
    Mesh,
    MeshError,
    _check_triangles,
    _edge_sort,
    _slot_edges,
    check_edges,
    shared_edge,
    split_pair,
    validate,
)


def _soup(rng):
    n = rng.randint(4, 8)
    vertices = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
    triples = list(itertools.combinations(range(n), 3))
    triangles = []
    for tri in rng.sample(triples, rng.randint(1, min(12, len(triples)))):
        tri = list(tri)
        rng.shuffle(tri)
        if rng.random() < 0.03:  # an invalid triangle now and then
            tri[rng.randrange(3)] = rng.choice([-1, n, tri[(rng.randrange(2) + 1) % 3]])
        triangles.append(tuple(tri))
    if rng.random() < 0.05:
        triangles.append(triangles[0][::-1])
    return vertices, triangles


def _closed(rng):
    mesh = octahedron() if rng.random() < 0.3 else torus(rng.randint(3, 6), rng.randint(3, 6))
    mesh = relabel(mesh, rng)
    return mesh.vertices, [mesh.triangles[t] for t in mesh.alive_ids()]


def _outcome(fn):
    try:
        return ("ok", fn())
    except MeshError as exc:
        return ("error", str(exc))


def _assert_same(mesh, oracle, edited):
    assert mesh.triangles == oracle.triangles
    assert mesh.alive == oracle.alive
    assert mesh.vertices == oracle.vertices
    assert mesh.n_triangles == oracle.n_triangles
    want = dict_neighbours(oracle)
    dual = dual_rows(mesh)
    assert dual == want
    for t, nbrs in dual.items():
        for u in nbrs:
            common = set(mesh.triangles[t]) & set(mesh.triangles[u])
            assert shared_edge(mesh, t, u) == tuple(sorted(common))
    for t in mesh.alive_ids():
        for e in triangle_edges(mesh, t):
            assert other_triangle(mesh, e, t) == oracle.other_triangle(e, t)
    for e in oracle.edge_map:
        assert edge_triangles(mesh, e) == oracle.edge_triangles(e)
    assert mesh.n_edges == len(oracle.edge_map)
    for mode in ("closed", "with_boundary"):
        got = validate(mesh, mode).violations
        expected = dict_validate(oracle, mode)
        # after edits the oracle lists edges in the order they were last
        # created; the table lists them by first slot, as on a fresh mesh
        assert (sorted(got), got)[not edited] == (sorted(expected), expected)[not edited]
    got, expected = mesh.boundary_edges(), oracle.boundary_edges()
    assert (sorted(got), got)[not edited] == (sorted(expected), expected)[not edited]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), closed=st.booleans(), steps=st.integers(0, 8))
def test_table_mesh_matches_dict_oracle(seed, closed, steps):
    rng = random.Random(seed)
    vertices, triangles = (_closed if closed else _soup)(rng)
    built = _outcome(lambda: Mesh(vertices, triangles))
    expected = _outcome(lambda: DictMesh(vertices, triangles))
    assert (built[0], built[1] if built[0] == "error" else None) == (
        expected[0], expected[1] if expected[0] == "error" else None
    )
    if built[0] == "error":
        return
    mesh, oracle = built[1], expected[1]
    _assert_same(mesh, oracle, edited=False)
    # the report from the constructor's sort equals a re-sort's, which a
    # copy makes, as it holds no flagged edges
    assert mesh._flagged is not None and mesh.copy()._flagged is None
    for mode in ("closed", "with_boundary"):
        assert check_edges(mesh, mode) == check_edges(mesh.copy(), mode)
    for _ in range(steps):
        # triangles whose edges each have at most two triangles
        simple = [
            t for t in mesh.alive_ids()
            if all(len(oracle.edge_triangles(e)) <= 2 for e in triangle_edges(mesh, t))
        ]
        pairs = [e for e, ts in oracle.edge_map.items() if len(ts) == 2 and set(ts) <= set(simple)]
        if rng.random() < 0.4 and simple:
            t = rng.choice(simple)
            assert insert_centroid(mesh, t) == dict_insert_centroid(oracle, t)
        elif pairs:
            e = rng.choice(pairs)
            pair = tuple(rng.sample(oracle.edge_triangles(e), 2))
            children = split_pair(mesh, e, pair)
            got = (e, mesh.n_vertices - 1, tuple(sorted(pair)), children)
            assert got == dict_split_pair(oracle, e)
        else:
            continue
        assert mesh._flagged is None  # every edit drops the flagged edges
        _assert_same(mesh, oracle, edited=True)


def test_constructor_errors_name_the_first_offender_in_check_order():
    verts = [(0, 0, 0)] * 4
    with pytest.raises(MeshError, match=r"degenerate triangle with repeated vertex: \(1, 1, 2\)"):
        Mesh(verts, [(0, 1, 2), (1, 1, 2), (0, 1, 9)])
    with pytest.raises(MeshError, match=r"triangle \(0, 1, 9\) references a vertex out of range"):
        Mesh(verts, [(0, 1, 2), (0, 1, 9), (1, 1, 2)])
    with pytest.raises(MeshError, match=r"duplicate triangle \(2, 0, 1\)"):
        Mesh(verts, [(0, 1, 2), (2, 0, 1), (1, 1, 2)])
    # indices beyond int64 are out of range, named as given
    with pytest.raises(MeshError, match=r"triangle \(0, 1, 18446744073709551616\) references"):
        Mesh(verts, [(0, 1, 2), (0, 1, 2**64)])


@pytest.mark.parametrize("bad", [2.7, float("nan"), float("inf"), "2", None, np.float32(0.5)])
def test_constructor_rejects_indices_that_are_not_integers(bad):
    # a cast to int64 would read 2.7 as 2 and "2" as 2
    with pytest.raises(MeshError, match="is not an integer"):
        Mesh([(0, 0, 0)] * 3, [(0, 1, bad)])
    with pytest.raises(MeshError, match="is not an integer"):
        Mesh([(0, 0, 0)] * 3, np.array([(0, 1, bad)]))


@pytest.mark.parametrize("tris", [
    [(0, 1, 2.0)],
    [(0, 1, np.int32(2))],
    [(0, 1, np.float64(2))],
    np.array([(0, 1, 2)], dtype=np.uint8),
    np.array([(0.0, 1.0, 2.0)]),
])
def test_constructor_takes_integers_and_integral_floats(tris):
    assert Mesh([(0, 0, 0)] * 3, tris).triangles == [(0, 1, 2)]


def test_constructor_names_unsigned_indices_beyond_int64_as_given():
    tris = np.array([(0, 1, 2), (0, 1, 2**63)], dtype=np.uint64)
    with pytest.raises(MeshError, match=r"triangle \(0, 1, 9223372036854775808\) references"):
        Mesh([(0, 0, 0)] * 3, tris)


def test_duplicate_check_survives_vertex_counts_that_overflow_packed_keys():
    # with n = 2^22 vertices, (a * n + b) * n + c wraps int64 for a >= 2^20:
    # these two distinct triangles would share a packed key
    n = 1 << 22
    tri = np.array([(1, 3_000_000, 3_000_001), (1 + (1 << 20), 3_000_000, 3_000_001)])
    _check_triangles(tri, n)
    with pytest.raises(MeshError, match="duplicate"):
        _check_triangles(np.vstack([tri, tri[1:]]), n)


def test_split_pair_takes_the_parents_in_id_order_after_a_revive():
    # triangle 0 is revived after its neighbour u, as restoration revives
    # triangles out of id order: 0 is still the first parent and gets the
    # first two children, however the pair is passed.
    for pass_order in ((0, 1), (1, 0)):
        mesh = octahedron()
        oracle = DictMesh(mesh.vertices, mesh.triangles)
        u = mesh.neighbours[0]
        e = shared_edge(mesh, 0, u)
        mesh._retire(0)
        mesh._reinstate(0)
        oracle.kill_triangle(0)
        oracle.revive_triangle(0)
        pair = tuple((0, u)[i] for i in pass_order)
        children = split_pair(mesh, e, pair)
        assert (e, mesh.n_vertices - 1, (0, u), children) == dict_split_pair(oracle, e)
        _assert_same(mesh, oracle, edited=True)


# -- the table of a mesh built from pipeline-made lists ----------------------------


def _built_and_constructed(mesh):
    tris = [mesh.triangles[t] for t in mesh.alive_ids()]
    return Mesh._built(list(mesh.vertices), list(tris)), Mesh(mesh.vertices, tris)


def _fields(mesh):
    return (
        list(map(repr, mesh.vertices)),
        mesh.triangles,
        mesh.alive,
        mesh.neighbours,
        mesh.n_triangles,
    )


_MAKERS = [lambda: torus(6, 4), lambda: gen_mk(3), octahedron]


@pytest.mark.parametrize("make", _MAKERS, ids=["torus", "mk3", "octahedron"])
def test_a_built_mesh_sorts_its_table_on_the_first_read(make):
    built, constructed = _built_and_constructed(make())
    assert built._neighbours is None
    table = built.neighbours
    assert table == constructed.neighbours
    assert built.neighbours is table  # sorted once


def _split_known_pair(mesh, pair_from):
    u = max(pair_from.neighbours[0:3])  # a neighbour across an interior edge
    split_pair(mesh, shared_edge(pair_from, 0, u), (0, u))


def _append_after_triangle_0(mesh, _pair_from):
    a, b, _c = mesh.triangles[0]
    mesh._append((b, a, mesh.add_vertex((9.0, 9.0, 9.0))), [0, -1, -1])


@pytest.mark.parametrize("make", _MAKERS, ids=["torus", "mk3", "octahedron"])
@pytest.mark.parametrize(
    "edit",
    [lambda mesh, _: mesh.copy(), _split_known_pair, _append_after_triangle_0],
    ids=["copy", "split_pair", "append"],
)
def test_edits_of_an_unread_built_mesh_match_a_constructed_mesh(make, edit):
    # the pair and the edge are read off a third mesh, so that the edit is
    # the first thing to touch the built mesh's table
    built, constructed = _built_and_constructed(make())
    _, reference = _built_and_constructed(make())
    got = edit(built, reference) or built
    want = edit(constructed, reference) or constructed
    assert _fields(got) == _fields(want)
    assert _fields(built) == _fields(constructed)


def _slot_soup(n, rows, seed):
    """`rows` random triangles on n vertices, as an (rows, 3) array."""
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, 3, replace=False) for _ in range(rows)], dtype=np.int64).reshape(-1, 3)


def _assert_stable_edge_sort(tri, n):
    order, start, size, _lo, _hi = _edge_sort(tri, n)
    lo, hi = _slot_edges(tri)
    key = lo * n + hi
    stable = np.argsort(key, kind="stable")
    assert order.tolist() == stable.tolist()
    assert start.tolist() == np.flatnonzero(np.diff(key[stable], prepend=-1)).tolist()
    assert size.sum() == len(key)
    return size


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 9), rows=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_edge_sort_equals_the_stable_sort(n, rows, seed):
    # few vertices and many rows put several slots on one edge; the fix-up
    # after the unstable sort must leave each group's slots in slot order,
    # as the stable sort does
    _assert_stable_edge_sort(_slot_soup(n, rows, seed), n)


def test_edge_sort_puts_groups_of_three_to_five_in_slot_order():
    size = _assert_stable_edge_sort(_slot_soup(6, 20, 0), 6)
    assert set(size.tolist()) >= {2, 3, 4, 5}
