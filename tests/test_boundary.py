"""Polygon family generator, balance edge, spine, Euler strip."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dual_by_shared_vertices,
    euler_strip_by_splits,
    longest_path_in_tree,
    prufer_tree,
    tree_edge_splits,
)
from singlestrip.boundary import (
    balance_edge,
    dual_spanning_tree,
    euler_strip,
    gen_mk,
    mk_triangle_count,
    spine_path,
    strip_with_boundary,
)
from singlestrip.generators import fan, torus
from singlestrip.cli import main
from singlestrip.fileio import load_mesh, read_strip_order, save_mesh
from singlestrip.mesh import DualGraph, Mesh, ValidationError, build_dual, validate
from singlestrip.striploop import verify_order


def _tree_as_dual(adj):
    """Wrap a plain tree adjacency as a DualGraph with dummy edge labels."""
    return DualGraph(
        adjacency={
            v: [(u, (min(u, v), max(u, v))) for u in sorted(ns)] for v, ns in adj.items()
        }
    )


def _path_tree(n):
    return {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}


def _open_grid(w, h, period=0):
    """Planar w x h grid of cells, two triangles per cell. With a period
    p >= 3, the interior cells (x, y) with x % p == y % p == 1 are holes."""
    vertices = [(float(x), float(y), 0.0) for y in range(h + 1) for x in range(w + 1)]
    triangles = []
    for y in range(h):
        for x in range(w):
            if period and x % period == y % period == 1 and x < w - 1 and y < h - 1:
                continue
            v = y * (w + 1) + x
            triangles += [(v, v + 1, v + w + 2), (v, v + w + 2, v + w + 1)]
    return Mesh(vertices, triangles)


def _relabel(mesh, rng):
    """The same surface with shuffled vertex ids, triangle order and
    starting corners; orientation is kept."""
    ids = list(range(mesh.n_vertices))
    rng.shuffle(ids)
    vertices = [None] * len(ids)
    for old, new in enumerate(ids):
        vertices[new] = mesh.vertices[old]
    triangles = []
    for t in mesh.alive_ids():
        a, b, c = (ids[v] for v in mesh.triangles[t])
        triangles.append([(a, b, c), (b, c, a), (c, a, b)][rng.randrange(3)])
    rng.shuffle(triangles)
    return Mesh(vertices, triangles)


def _snapshot(mesh):
    return (
        list(mesh.vertices),
        list(mesh.triangles),
        list(mesh.alive),
        {e: list(ts) for e, ts in mesh.edge_map.items()},
        mesh.n_triangles,
    )


def _euler_inputs(mesh):
    tree = dual_spanning_tree(build_dual(mesh))
    return tree, spine_path(tree, balance_edge(tree))


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("k,count", [(0, 1), (1, 4), (2, 10), (3, 22)])
def test_mk_triangle_counts(k, count):
    mesh = gen_mk(k)
    assert mesh.n_triangles == count == mk_triangle_count(k)
    assert validate(mesh, "with_boundary").ok


def test_mk_dual_tree_longest_path():
    for k in (1, 2, 3, 4):
        adj = dual_by_shared_vertices(gen_mk(k))
        edges = sum(len(v) for v in adj.values()) // 2
        assert edges == len(adj) - 1
        assert longest_path_in_tree(adj) == 2 * k


def test_mk_boundary_is_polygon():
    for k in (1, 2, 3):
        mesh = gen_mk(k)
        assert len(mesh.boundary_edges()) == 3 * 2**k


def test_mk_rejects_bad_k():
    with pytest.raises(ValueError):
        gen_mk(-1)
    with pytest.raises(ValueError):
        gen_mk(17)


# -- balance edge -----------------------------------------------------------------


def test_balance_edge_path6_middle():
    tree = dual_spanning_tree(_tree_as_dual(_path_tree(6)))
    child, parent = balance_edge(tree)
    low = min(tree.subtree[child], 6 - tree.subtree[child])
    assert low == 3


def test_balance_edge_m2_matches_enumeration():
    mesh = gen_mk(2)
    adj = dual_by_shared_vertices(mesh)
    splits = tree_edge_splits(adj)
    best = max(min(side, len(adj) - side) for _u, _v, side in splits)
    tree = dual_spanning_tree(build_dual(mesh))
    child, _parent = balance_edge(tree)
    low = min(tree.subtree[child], tree.n - tree.subtree[child])
    assert low == best
    # the M_2 dual is a 3-spoke tree: the optimum split is 3/7, hitting
    # floor(n/3); a >= ceil(n/3) split does not exist on this shape
    assert best == 3


def test_balance_edge_floor_bound_exhaustive_small_trees():
    # all labeled trees on up to 7 nodes with max degree <= 3
    for n in range(3, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            adj = prufer_tree(seq)
            if max(len(v) for v in adj.values()) > 3:
                continue
            tree = dual_spanning_tree(_tree_as_dual(adj))
            child, _ = balance_edge(tree)
            low = min(tree.subtree[child], n - tree.subtree[child])
            assert low >= n // 3, f"tree {adj} split {low}"


def test_balance_edge_floor_bound_sampled_trees():
    rng = random.Random(19)
    for n in (8, 9, 10, 12):
        trials = 0
        while trials < 300:
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            adj = prufer_tree(seq)
            if max(len(v) for v in adj.values()) > 3:
                continue
            trials += 1
            tree = dual_spanning_tree(_tree_as_dual(adj))
            child, _ = balance_edge(tree)
            low = min(tree.subtree[child], n - tree.subtree[child])
            assert low >= n // 3


def test_balance_edge_needs_three_nodes():
    with pytest.raises(ValueError):
        balance_edge(dual_spanning_tree(_tree_as_dual(_path_tree(2))))


# -- spine -----------------------------------------------------------------------


def test_spine_path6_whole_path():
    tree = dual_spanning_tree(_tree_as_dual(_path_tree(6)))
    spine = spine_path(tree, balance_edge(tree))
    assert spine == [0, 1, 2, 3, 4, 5] or spine == [5, 4, 3, 2, 1, 0]


def test_spine_mk_length_2k():
    for k in (1, 2, 3, 4, 5):
        tree = dual_spanning_tree(build_dual(gen_mk(k)))
        spine = spine_path(tree, balance_edge(tree))
        assert len(spine) - 1 == 2 * k


def test_spine_single_node_side():
    # star: cutting any edge leaves a single-node side whose leaf is itself
    star = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
    tree = dual_spanning_tree(_tree_as_dual(star))
    child, parent = balance_edge(tree)
    spine = spine_path(tree, (child, parent))
    assert spine[0] == child
    assert len(spine) == 3  # leaf, center, other leaf


# -- euler strip -----------------------------------------------------------------


def test_euler_strip_m1_is_6():
    mesh = gen_mk(1)
    dual = build_dual(mesh)
    tree = dual_spanning_tree(dual)
    spine = spine_path(tree, balance_edge(tree))
    strip, records, out = euler_strip(mesh, tree, spine)
    assert len(records) == 1
    assert len(strip) == 6 == 3 * 4 - 2 - 2 * 2
    assert verify_order(out, strip, closed=False) == (True, None)


def test_euler_strip_count_identity_and_tree_only_crossings():
    mesh = torus(6, 5).copy()
    # punch a hole: drop two adjacent triangles to create a boundary
    mesh.kill_triangle(0)
    mesh.kill_triangle(1)
    n = mesh.n_triangles
    dual = build_dual(mesh)
    tree = dual_spanning_tree(dual)
    tree_pairs = {frozenset(p) for p in tree.tree_edges()}
    spine = spine_path(tree, balance_edge(tree))
    before = _snapshot(mesh)
    strip, records, out = euler_strip(mesh, tree, spine)
    assert _snapshot(mesh) == before
    assert len(strip) == n + 2 * len(records)
    assert verify_order(out, strip, closed=False) == (True, None)
    # `out` numbers the live cells of the split mesh in id order
    parents = {p for rec in records for p in rec.parents}
    children = {c for rec in records for c in rec.children}
    work_ids = sorted((set(mesh.alive_ids()) | children) - parents)
    assert len(work_ids) == out.n_triangles
    # trace every crossing back to original triangles: only tree edges used
    origin = {t: t for t in range(len(mesh.triangles))}
    for rec in records:
        for pi, parent in enumerate(rec.parents):
            for child in rec.children[2 * pi : 2 * pi + 2]:
                origin[child] = origin[parent]
    crossed = set()
    for a, b in zip(strip, strip[1:]):
        oa, ob = origin[work_ids[a]], origin[work_ids[b]]
        if oa != ob:
            crossed.add(frozenset((oa, ob)))
    assert crossed <= tree_pairs


_open_meshes = st.one_of(
    st.builds(_open_grid, st.integers(1, 10), st.integers(1, 10), st.sampled_from([0, 3, 4])),
    st.builds(fan, st.integers(3, 30)),
    st.builds(_open_grid, st.integers(1, 2), st.integers(2, 60)),
)


@settings(max_examples=40, deadline=None)
@given(mesh=_open_meshes, seed=st.integers(0, 2**32 - 1))
def test_euler_strip_matches_split_pair_oracle(mesh, seed):
    mesh = _relabel(mesh, random.Random(seed))
    if mesh.n_triangles < 3:
        return
    tree, spine = _euler_inputs(mesh)
    before = _snapshot(mesh)
    strip, records, out = euler_strip(mesh, tree, spine)
    assert _snapshot(mesh) == before
    want_strip, want_records, want_out = euler_strip_by_splits(mesh, tree, spine)
    assert records == want_records
    assert strip == want_strip
    assert out.triangles == want_out.triangles
    assert out.vertices == want_out.vertices
    assert verify_order(out, strip, closed=False) == (True, None)


def test_euler_strip_matches_oracle_with_dead_slots():
    mesh = _open_grid(6, 5)
    mesh.kill_triangle(0)
    mesh.kill_triangle(1)
    tree, spine = _euler_inputs(mesh)
    strip, records, out = euler_strip(mesh, tree, spine)
    want_strip, want_records, want_out = euler_strip_by_splits(mesh, tree, spine)
    assert (strip, records, out.triangles) == (want_strip, want_records, want_out.triangles)


# -- orchestrator ------------------------------------------------------------------


def test_strip_with_boundary_m2():
    res = strip_with_boundary(gen_mk(2))
    assert res.stats["output_triangles"] == 20 == 3 * 10 - 2 - 4 * 2
    assert verify_order(res.mesh, res.order, closed=False) == (True, None)


def test_strip_with_boundary_mk_tight():
    for k in range(1, 7):
        n = mk_triangle_count(k)
        res = strip_with_boundary(gen_mk(k))
        assert res.stats["output_triangles"] == 3 * n - 2 - 4 * k


def test_strip_with_boundary_fan_no_splits():
    res = strip_with_boundary(fan(5))
    assert res.stats["output_triangles"] == 5
    assert res.stats["splits"] == 0
    assert res.stats["spine_edges"] == 4


def test_strip_with_boundary_quad():
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)])
    res = strip_with_boundary(mesh)
    assert res.order in ([0, 1], [1, 0])
    assert res.stats["splits"] == 0


def test_strip_with_boundary_single_triangle():
    mesh = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    res = strip_with_boundary(mesh)
    assert res.order == [0]


def test_strip_with_boundary_rejects_closed():
    with pytest.raises(ValidationError, match="no boundary"):
        strip_with_boundary(torus(4, 3))


def test_strip_with_boundary_deterministic():
    a = strip_with_boundary(gen_mk(4))
    b = strip_with_boundary(gen_mk(4))
    assert a.order == b.order


def test_strip_with_boundary_input_untouched():
    mesh = gen_mk(3)
    strip_with_boundary(mesh)
    assert mesh.n_triangles == mk_triangle_count(3)


def test_strip_with_boundary_deep_dual_tree(tmp_path):
    # a 3 x 2000 strip: the doubled subtrees nest thousands of levels deep
    mesh = _open_grid(3, 2000)
    res = strip_with_boundary(mesh)
    assert verify_order(res.mesh, res.order, closed=False) == (True, None)
    assert len(res.order) == 12000 + 2 * res.stats["splits"]

    path = tmp_path / "strip.off"
    save_mesh(mesh, path)
    out = tmp_path / "out"
    assert main(["stripify-boundary", str(path), "--out", str(out)]) == 0
    order, closed = read_strip_order(out / "strip.strip.txt")
    assert not closed
    assert verify_order(load_mesh(out / "strip.strip.obj"), order, closed=False) == (True, None)


# sha256 of the `stripify-boundary` outputs (strip OBJ, strip order, stats
# without timings as sorted JSON), pinned while the strip was still built by
# `split_pair` edits of a mesh copy
GOLDEN_BOUNDARY = {
    "mk4.obj": (
        "f42bf7a2c2914d2131495d593726ea27b913d1a693563ff59446f06952b8a61f",
        "f033e8a3045de2d6da30f47bfb18f5fb6b6afb588c1557911fec3fcd8241e334",
        "4120e17eacc709cb23352a6151e545ee0fdd34e48d1150bc1eda5a098d1c3180",
    ),
    "fan12.off": (
        "4b19ab9a98d6d7c37e58f95906a52b3f0ab3444dfe39d5e21e52f59a6fdb7415",
        "db93e64c877e9406a1e7970683feb4017e62c6ae2f8c1e4bbefc8f3c678bf0e1",
        "b4aedb1b25b65fa655fb2a2a1823ceb99dde1fe711962ed280e24f46ff16acda",
    ),
    "holes.off": (
        "89575b6aad2eccda627d33d105de6711c55bfd32c3893ba2525d6c2a8089cc69",
        "088d8503152cb6be7907dfae37fa8607c048d8caf9d280e83da17051deeebdda",
        "183fc6f6c8c95ae3c1b817de89c6f3962daea5a6807f88435283ab301bfd67b5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDARY))
def test_stripify_boundary_output_bytes_are_pinned(tmp_path, name):
    path = tmp_path / name
    if name == "mk4.obj":
        assert main(["gen", "mk(4)", "-o", str(path), "--format", "obj"]) == 0
    elif name == "fan12.off":
        assert main(["gen", "fan(12)", "-o", str(path)]) == 0
    else:
        save_mesh(_relabel(_open_grid(9, 7, 3), random.Random(5)), path)
    out = tmp_path / "out"
    assert main(["stripify-boundary", str(path), "--out", str(out)]) == 0
    stem = path.stem
    stats = json.loads((out / f"{stem}.stats.json").read_text())
    del stats["elapsed_ms"]
    digests = (
        hashlib.sha256((out / f"{stem}.strip.obj").read_bytes()).hexdigest(),
        hashlib.sha256((out / f"{stem}.strip.txt").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest(),
    )
    assert digests == GOLDEN_BOUNDARY[name]
