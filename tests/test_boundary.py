"""Polygon family generator, balance edge, spine, Euler strip."""

import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    as_table,
    assert_same_as_checked_rebuild,
    balance_edge_by_dicts,
    bfs_spanning_tree_by_dicts,
    coplanar_parents,
    dual_by_shared_vertices,
    dual_rows,
    dual_spanning_tree_by_mapping,
    euler_strip_by_lists,
    euler_strip_by_splits,
    flip_edges,
    insert_centroid,
    longest_path_in_tree,
    mk_triangle_count,
    prufer_tree,
    punch_holes,
    relabel,
    spine_path_by_dicts,
    tree_as_table,
    tree_edge_splits,
    tree_edges,
    warnsdorff_spanning_tree_by_dicts,
)
from singlestrip import mesh as mesh_module
from singlestrip.boundary import (
    DualSpanningTree,
    _doubled_edges,
    balance_edge,
    dual_spanning_tree,
    euler_strip,
    spine_path,
    strip_with_boundary,
)
from singlestrip.generators import fan, gen_mk, icosphere, tetrahedron, torus
from singlestrip.cli import main
from singlestrip.fileio import dumps_obj, dumps_strip_order, load_mesh, read_strip_order, save_mesh
from singlestrip.mesh import Mesh, ValidationError, build_dual, validate
from singlestrip.striploop import PipelineError, stripify, verify_order


def _tree_as_dual(adj):
    """A plain tree adjacency as a dual mapping, neighbours in id order."""
    return {v: sorted(ns) for v, ns in adj.items()}


def _mesh_tree(mesh):
    return dual_spanning_tree(mesh.neighbours, mesh.alive)


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


def _snapshot(mesh):
    return (
        list(mesh.vertices),
        list(mesh.triangles),
        list(mesh.alive),
        list(mesh.neighbours),
        mesh.n_triangles,
    )


def _list_tree(tree):
    """An oracle's dict tree as the library's lists indexed by node id."""
    size = max(tree.parent) + 1
    parent, children, subtree = [None] * size, [[] for _ in range(size)], [0] * size
    for t in tree.order:
        parent[t], children[t], subtree[t] = tree.parent[t], list(tree.children[t]), tree.subtree[t]
    return DualSpanningTree(parent=parent, children=children, subtree=subtree, order=list(tree.order))


def _euler_inputs(mesh, bfs=False):
    """The tree and spine `strip_with_boundary` would use; with `bfs`, the
    oracle's BFS tree instead, whose shallow shape doubles most tree edges."""
    tree = _list_tree(bfs_spanning_tree_by_dicts(dual_rows(mesh))) if bfs else _mesh_tree(mesh)
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
    tree = dual_spanning_tree(*tree_as_table(_path_tree(6)))
    child, parent = balance_edge(tree)
    low = min(tree.subtree[child], 6 - tree.subtree[child])
    assert low == 3


def test_balance_edge_m2_matches_enumeration():
    mesh = gen_mk(2)
    adj = dual_by_shared_vertices(mesh)
    splits = tree_edge_splits(adj)
    best = max(min(side, len(adj) - side) for _u, _v, side in splits)
    tree = _mesh_tree(mesh)
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
            tree = dual_spanning_tree(*tree_as_table(adj))
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
            tree = dual_spanning_tree(*tree_as_table(adj))
            child, _ = balance_edge(tree)
            low = min(tree.subtree[child], n - tree.subtree[child])
            assert low >= n // 3


def test_balance_edge_needs_three_nodes():
    with pytest.raises(ValueError):
        balance_edge(dual_spanning_tree(*tree_as_table(_path_tree(2))))


# -- spine -----------------------------------------------------------------------


def test_spine_path6_whole_path():
    tree = dual_spanning_tree(*tree_as_table(_path_tree(6)))
    spine = spine_path(tree, balance_edge(tree))
    assert spine == [0, 1, 2, 3, 4, 5] or spine == [5, 4, 3, 2, 1, 0]


def test_spine_mk_length_2k():
    for k in (1, 2, 3, 4, 5):
        tree = _mesh_tree(gen_mk(k))
        spine = spine_path(tree, balance_edge(tree))
        assert len(spine) - 1 == 2 * k


def test_spine_single_node_side():
    # star: cutting any edge leaves a single-node side whose leaf is itself;
    # the tree is rooted at leaf 1, so the balance edge is (centre, 1)
    star = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
    tree = dual_spanning_tree(*tree_as_table(star))
    assert tree.order[0] == 1
    e = balance_edge(tree)
    spine = spine_path(tree, e)
    assert len(spine) == 3  # leaf, centre, other leaf
    assert spine[1] == 0 and {spine[0], spine[2]} <= {1, 2, 3}
    assert e in ((spine[1], spine[2]), (spine[1], spine[0]))


# -- euler strip -----------------------------------------------------------------


def test_euler_strip_m1_is_6():
    mesh = gen_mk(1)
    tree = _mesh_tree(mesh)
    spine = spine_path(tree, balance_edge(tree))
    strip, doubled, out = euler_strip(mesh, tree, spine)
    assert len(doubled) == 1
    assert len(strip) == 6 == 3 * 4 - 2 - 2 * 2
    assert verify_order(out, strip, closed=False) == (True, None)


def test_euler_strip_count_identity_and_tree_only_crossings():
    mesh = torus(6, 5).copy()
    # punch a hole: drop two adjacent triangles to create a boundary
    punch_holes(mesh, (0, 1))
    n = mesh.n_triangles
    tree = _mesh_tree(mesh)
    tree_pairs = {frozenset(p) for p in tree_edges(tree)}
    spine = spine_path(tree, balance_edge(tree))
    before = _snapshot(mesh)
    strip, doubled, out = euler_strip(mesh, tree, spine)
    assert _snapshot(mesh) == before
    assert len(strip) == n + 2 * len(doubled) == out.n_triangles
    assert verify_order(out, strip, closed=False) == (True, None)
    # trace every crossing back to the input triangles under the cells:
    # only tree edges are crossed
    _edge_of, under = coplanar_parents(mesh, out)
    crossed = set()
    for a, b in zip(strip, strip[1:]):
        if under[a] != under[b]:
            crossed.add(frozenset((under[a], under[b])))
    assert crossed <= tree_pairs


def _holed_grid(w, h, seed):
    """A w x h grid with about a fifth of its triangles removed at random,
    cut down to the dual component of its smallest remaining triangle."""
    rng = random.Random(seed)
    mesh = _open_grid(w, h)
    punch_holes(mesh, [t for t in mesh.alive_ids() if rng.random() < 0.2])
    dual = build_dual(mesh)
    if dual:
        start = min(dual)
        seen, stack = {start}, [start]
        while stack:
            for u in dual[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        punch_holes(mesh, [t for t in dual if t not in seen])
    return mesh


# grids with periodic and with random holes, thin strips, fans and M_k; the
# test relabels each
_open_meshes = st.one_of(
    st.builds(_open_grid, st.integers(1, 10), st.integers(1, 10), st.sampled_from([0, 3, 4])),
    st.builds(_holed_grid, st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1)),
    st.builds(_open_grid, st.integers(1, 3), st.integers(2, 80)),
    st.builds(fan, st.integers(3, 40)),
    st.builds(gen_mk, st.integers(1, 6)),
)


@settings(max_examples=80, deadline=None)
@given(mesh=_open_meshes, seed=st.integers(0, 2**32 - 1), bfs=st.booleans())
def test_euler_strip_matches_split_pair_oracle(mesh, seed, bfs):
    mesh = relabel(mesh, random.Random(seed))
    if mesh.n_triangles < 3:
        return
    tree, spine = _euler_inputs(mesh, bfs)
    before = _snapshot(mesh)
    strip, doubled, out = euler_strip(mesh, tree, spine)
    assert _snapshot(mesh) == before
    want_strip, want_splits, want_out = euler_strip_by_splits(mesh, tree, spine)
    assert len(doubled) == len(want_splits)
    assert coplanar_parents(mesh, out)[0] == {s.midpoint: s.edge for s in want_splits}
    assert strip == want_strip
    assert out.triangles == want_out.triangles
    assert out.vertices == want_out.vertices
    assert out.neighbours == want_out.neighbours
    assert verify_order(out, strip, closed=False) == (True, None)


def _punch_tree_leaves(mesh, k):
    """Punch up to k leaves of the dual spanning tree out of `mesh`: dead
    slots whose removal leaves the rest of the dual connected."""
    if k and mesh.n_triangles > k + 2:
        tree = _mesh_tree(mesh)
        punch_holes(mesh, [t for t in tree.order if not tree.children[t]][:k])


def _reinstate_a_spine_pair_triangle(mesh, tree, spine, pick):
    """Retire and reinstate one triangle of a doubled edge anchored on the
    spine, as restoration revives triangles out of id order."""
    on_spine = set(spine)
    ends = [t for pair in _doubled_edges(tree, spine) if pair[0] in on_spine for t in pair]
    if ends:
        t = ends[pick % len(ends)]
        mesh._retire(t)
        mesh._reinstate(t)


def _strip_reprs(strip, out):
    # reprs: every value a Python int or float, as the writers expect
    return repr(strip), list(map(repr, out.vertices)), repr(out.triangles)


@settings(max_examples=100, deadline=None)
@given(
    mesh=_open_meshes,
    seed=st.integers(0, 2**32 - 1),
    flips=st.integers(0, 8),
    holes=st.integers(0, 6),
    pick=st.none() | st.integers(0, 2**16),
    bfs=st.booleans(),
)
# folded grids in which flipped edges cross at one midpoint: both crossing
# edges split; one split, with the ends of both next to its midpoint; and
# three midpoints that settle only together
@example(mesh=_open_grid(6, 6, 3), seed=4, flips=5, holes=0, pick=None, bfs=False)
@example(mesh=_holed_grid(4, 4, 161), seed=2, flips=4, holes=0, pick=None, bfs=True)
@example(mesh=_holed_grid(2, 8, 1), seed=2312856, flips=8, holes=0, pick=None, bfs=False)
def test_euler_strip_matches_the_list_replay(mesh, seed, flips, holes, pick, bfs):
    rng = random.Random(seed)
    mesh = flip_edges(relabel(mesh, rng), rng, flips)
    _punch_tree_leaves(mesh, holes)
    if mesh.n_triangles < 3:
        return
    tree, spine = _euler_inputs(mesh, bfs)
    before = _snapshot(mesh)
    strip, doubled, out = euler_strip(mesh, tree, spine)
    assert _snapshot(mesh) == before
    want_strip, want_splits, want = euler_strip_by_lists(mesh, tree, spine)
    assert _strip_reprs(strip, out) == _strip_reprs(want_strip, want)
    assert out.alive == want.alive
    assert out.n_triangles == want.n_triangles
    assert out._neighbours is None  # sorted only when read
    assert out.neighbours == want.neighbours
    # from the output alone: one midpoint per doubled edge, each on the edge
    # the replay split there, and every cell inside an input triangle
    assert out.n_vertices - mesh.n_vertices == len(doubled) == len(want_splits)
    edge_of, _under = coplanar_parents(mesh, out)
    assert edge_of == {s.midpoint: s.edge for s in want_splits}
    if pick is not None:
        # split parents go in id order, so a revive changes no output
        _reinstate_a_spine_pair_triangle(mesh, tree, spine, pick)
        again_strip, again_doubled, again = euler_strip(mesh, tree, spine)
        assert again_doubled == doubled
        assert _strip_reprs(again_strip, again) == _strip_reprs(strip, out)
        assert again.neighbours == out.neighbours


@settings(max_examples=60, deadline=None)
@given(mesh=_open_meshes, seed=st.integers(0, 2**32 - 1))
def test_unchecked_outputs_equal_a_checked_rebuild(mesh, seed):
    # `euler_strip` (through `strip_with_boundary`, the n <= 2 branch too)
    # and `compact` build their meshes without the constructor's checks
    mesh = relabel(mesh, random.Random(seed))
    assert_same_as_checked_rebuild(strip_with_boundary(mesh).mesh)
    punch_holes(mesh, mesh.alive_ids()[: mesh.n_triangles // 4])
    assert_same_as_checked_rebuild(mesh.compact()[0])


def _prufer_dual(seq):
    return _tree_as_dual(prufer_tree(tuple(seq)))


# the table holds three slots a node, as a triangle has three edges, so the
# Prüfer trees are those of degree at most 3
_tree_duals = st.one_of(
    st.builds(dual_rows, _open_meshes),
    st.builds(lambda p, q: dual_rows(torus(p, q)), st.integers(3, 9), st.integers(3, 9)),
    st.lists(st.integers(0, 11), min_size=1, max_size=10)
    .map(lambda seq: _prufer_dual([v % (len(seq) + 2) for v in seq]))
    .filter(lambda dual: max(map(len, dual.values())) <= 3),
)


def _sparse_relabel(dual, seed):
    """The dual with its nodes renamed to sparse ids, so that the tree's
    lists hold slots off the tree."""
    rng = random.Random(seed)
    name = dict(zip(sorted(dual), rng.sample(range(3 * len(dual)), len(dual))))
    return {name[t]: [name[u] for u in row] for t, row in dual.items()}


@settings(max_examples=80, deadline=None)
@given(dual=_tree_duals, seed=st.integers(0, 2**32 - 1))
def test_list_tree_matches_the_dict_oracle(dual, seed):
    dual = _sparse_relabel(dual, seed)
    tree = dual_spanning_tree(*as_table(dual))
    want = warnsdorff_spanning_tree_by_dicts(dual)
    assert tree_edges(tree) == want.tree_edges()
    assert tree.n == len(want.parent)
    assert {t: tree.subtree[t] for t in dual} == want.subtree
    assert {t: tree.children[t] for t in dual} == want.children
    off = set(range(len(tree.parent))) - set(dual)
    assert all(tree.parent[t] is None and not tree.children[t] and not tree.subtree[t] for t in off)
    if len(dual) >= 3:
        e = balance_edge(tree)
        assert e == balance_edge_by_dicts(want)
        assert spine_path(tree, e) == spine_path_by_dicts(want, e)


@settings(max_examples=80, deadline=None)
@given(mesh=_open_meshes, seed=st.integers(0, 2**32 - 1), holes=st.integers(0, 6))
def test_table_tree_matches_the_mapping_oracle(mesh, seed, holes):
    # the tree read off the table rows against the tree of the rows as a
    # mapping, on relabelled meshes with dead slots, the largest id too
    mesh = relabel(mesh, random.Random(seed))
    _punch_tree_leaves(mesh, holes)
    last = mesh.alive_ids()[-1]
    if holes and mesh.n_triangles > 2 and not _mesh_tree(mesh).children[last]:
        punch_holes(mesh, [last])
    tree = _mesh_tree(mesh)
    want = dual_spanning_tree_by_mapping(dual_rows(mesh))
    assert (tree.parent, tree.children, tree.subtree, tree.order) == want


@settings(max_examples=80, deadline=None)
@given(dual=_tree_duals, seed=st.integers(0, 2**32 - 1))
def test_tree_spans_the_dual_depth_first(dual, seed):
    # no oracle: the tree reaches every node over dual edges, and every dual
    # edge off the tree joins a node to one of its ancestors
    dual = _sparse_relabel(dual, seed)
    tree = dual_spanning_tree(*as_table(dual))
    assert sorted(tree.order) == sorted(dual)
    assert tree.parent[tree.order[0]] is None
    seen = {tree.order[0]}
    for t in tree.order[1:]:
        assert tree.parent[t] in seen and t in dual[tree.parent[t]]
        seen.add(t)

    def ancestors(t):
        out = set()
        while tree.parent[t] is not None:
            t = tree.parent[t]
            out.add(t)
        return out

    edges = {frozenset(e) for e in tree_edges(tree)}
    for t, row in dual.items():
        up = ancestors(t)
        for u in row:
            if frozenset((t, u)) not in edges:
                assert u in up or t in ancestors(u), f"cross edge {t}-{u}"


def _centroid_torus():
    mesh = torus(8, 6)
    for t in (0, 17, 30):
        insert_centroid(mesh, t)
    return mesh


@pytest.mark.parametrize(
    "run,make",
    [
        (strip_with_boundary, lambda: gen_mk(4)),
        (strip_with_boundary, lambda: _open_grid(1, 1)),
        (stripify, _centroid_torus),
    ],
    ids=["open-mk4", "open-two-triangles", "closed-centroids"],
)
def test_the_pipeline_never_calls_the_checking_constructor(monkeypatch, run, make):
    # what the pipeline builds itself goes through `Mesh._built`; a checking
    # construction brought back on pipeline-made data fails here
    mesh = make()
    calls = []
    init = Mesh.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Mesh, "__init__", counting)
    res = run(mesh)
    assert calls == []
    assert res.stats["verified"] and res.mesh.n_triangles == len(res.order)


@pytest.mark.parametrize(
    "command,make",
    [("stripify-boundary", lambda: gen_mk(4)), ("stripify", _centroid_torus)],
    ids=["open-mk4", "closed-centroids"],
)
def test_the_cli_sorts_only_the_input_table(monkeypatch, tmp_path, command, make):
    # the output mesh's table is sorted only when read, and no writer reads
    # it; the input's one edge sort yields both its table and its edge
    # checks, and the open path's tree reads the table rows, not
    # `build_dual`'s mapping, which the closed path builds once, to match
    mesh = make()
    path = tmp_path / "in.off"
    save_mesh(mesh, path)
    tables, sorts, duals = [], [], []
    table, edge_sort, dual = mesh_module._table, mesh_module._edge_sort, mesh_module.build_dual

    def counting_table(tri, n):
        tables.append(len(tri))
        return table(tri, n)

    def counting_sort(tri, n):
        sorts.append(len(tri))
        return edge_sort(tri, n)

    def counting_dual(mesh):
        duals.append(mesh.n_triangles)
        return dual(mesh)

    monkeypatch.setattr(mesh_module, "_table", counting_table)
    monkeypatch.setattr(mesh_module, "_edge_sort", counting_sort)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("singlestrip") and getattr(module, "build_dual", None) is dual:
            monkeypatch.setattr(module, "build_dual", counting_dual)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 0
    assert tables == sorts == [mesh.n_triangles]
    assert len(duals) == (command == "stripify")


@pytest.mark.parametrize("shape", ["end", "start", "interior"])
def test_euler_strip_rejects_a_spine_triangle_with_two_doubled_children(shape):
    # mk(2): a centre triangle, three triangles around it and two ears on
    # each of those; a spine through the centre that leaves two of its
    # neighbours off the path cannot be walked, and must say so
    mesh = gen_mk(2)
    dual = dual_rows(mesh)
    tree = _mesh_tree(mesh)
    centre = next(
        t for t, nbrs in dual.items() if len(nbrs) == 3 and all(len(dual[u]) == 3 for u in nbrs)
    )
    x1, x2, _ = dual[centre]
    ear1 = next(u for u in dual[x1] if u != centre)
    ear2 = next(u for u in dual[x2] if u != centre)
    spine = {"end": [x1, centre], "start": [centre, x1], "interior": [ear1, x1, centre, ear2]}[shape]
    with pytest.raises(PipelineError, match="doubled child"):
        euler_strip(mesh, tree, spine)


def test_euler_strip_matches_oracle_with_dead_slots():
    mesh = _open_grid(6, 5)
    punch_holes(mesh, (0, 1))
    tree, spine = _euler_inputs(mesh)
    strip, doubled, out = euler_strip(mesh, tree, spine)
    want_strip, want_splits, want_out = euler_strip_by_splits(mesh, tree, spine)
    assert (strip, out.triangles) == (want_strip, want_out.triangles)
    assert len(doubled) == len(want_splits)


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


def test_strip_with_boundary_rejects_closed(tmp_path):
    with pytest.raises(ValidationError, match="no boundary") as info:
        strip_with_boundary(torus(4, 3))
    assert [code for code, _ in info.value.report.violations] == ["closed_mesh"]
    save_mesh(torus(4, 3), tmp_path / "in.off")
    assert main(["stripify-boundary", str(tmp_path / "in.off"), "--out", str(tmp_path / "out")]) == 3
    # a dead row's -1 slots are stale and do not make a boundary
    mesh = torus(4, 3)
    mesh._retire(mesh._append((0, 1, 5), [-1, -1, -1]))
    with pytest.raises(ValidationError, match="no boundary"):
        strip_with_boundary(mesh)


def _disjoint(*meshes):
    """One mesh holding the given meshes side by side, sharing no vertex."""
    vertices, triangles = [], []
    for mesh in meshes:
        v0 = len(vertices)
        vertices += mesh.vertices
        triangles += [tuple(v0 + v for v in mesh.triangles[t]) for t in mesh.alive_ids()]
    return Mesh(vertices, triangles)


def _flipped_one(mesh):
    """The mesh with its first triangle wound the other way."""
    triangles = [mesh.triangles[t] for t in mesh.alive_ids()]
    a, b, c = triangles[0]
    triangles[0] = (a, c, b)
    return Mesh(mesh.vertices, triangles)


_SINGLE_TRIANGLE = Mesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: _disjoint(_open_grid(4, 3), _open_grid(3, 5)),
        lambda: _disjoint(_open_grid(4, 3), tetrahedron()),
        lambda: _disjoint(torus(4, 3), torus(5, 3)),
        lambda: _disjoint(_SINGLE_TRIANGLE, _SINGLE_TRIANGLE),
        lambda: _flipped_one(_disjoint(_open_grid(4, 3), _open_grid(3, 5))),
    ],
    ids=["two-grids", "grid-and-tetrahedron", "two-tori", "two-triangles", "two-grids-one-flipped"],
)
def test_a_disconnected_mesh_gets_the_validate_report(tmp_path, make):
    # the spanning tree is the open path's connectivity check; what it
    # rejects reads as `validate` reports it, edge violations first
    mesh = make()
    want = validate(mesh, "with_boundary")
    assert want.violations[-1][0] == "disconnected_dual"
    with pytest.raises(ValidationError) as info:
        strip_with_boundary(mesh)
    assert info.value.report.violations == want.violations
    path = tmp_path / "in.off"
    save_mesh(mesh, path)
    assert main(["stripify-boundary", str(path), "--out", str(tmp_path / "out")]) == 3


def test_strip_with_boundary_deterministic():
    a = strip_with_boundary(gen_mk(4))
    b = strip_with_boundary(gen_mk(4))
    assert a.order == b.order


def test_strip_with_boundary_input_untouched():
    mesh = gen_mk(3)
    strip_with_boundary(mesh)
    assert mesh.n_triangles == mk_triangle_count(3)


def test_strip_with_boundary_deep_dual_tree(tmp_path):
    # a 3 x 2000 strip: its dual tree is thousands of levels deep, and on a
    # BFS tree so are the doubled subtrees the walk nests through
    mesh = _open_grid(3, 2000)
    res = strip_with_boundary(mesh)
    assert verify_order(res.mesh, res.order, closed=False) == (True, None)
    assert len(res.order) == 12000 + 2 * res.stats["splits"]
    tree, spine = _euler_inputs(mesh, bfs=True)
    strip, doubled, out = euler_strip(mesh, tree, spine)
    assert len(doubled) > 4000
    assert verify_order(out, strip, closed=False) == (True, None)

    path = tmp_path / "strip.off"
    save_mesh(mesh, path)
    out = tmp_path / "out"
    assert main(["stripify-boundary", str(path), "--out", str(out)]) == 0
    order, closed = read_strip_order(out / "strip.strip.txt")
    assert not closed
    assert verify_order(load_mesh(out / "strip.strip.obj"), order, closed=False) == (True, None)


def _cut_one(mesh, t):
    """A closed mesh with triangle t cut out: one boundary loop."""
    punch_holes(mesh, [t % mesh.n_triangles])
    return mesh


# relabelled in the test: holed grids, 2-3 wide strips, fans, M_k, and tori
# and icospheres with one triangle cut out
_open_property_meshes = st.one_of(
    st.builds(_holed_grid, st.integers(2, 14), st.integers(2, 14), st.integers(0, 2**32 - 1)),
    st.builds(_open_grid, st.integers(2, 3), st.integers(1, 120)),
    st.builds(fan, st.integers(3, 60)),
    st.builds(gen_mk, st.integers(0, 6)),
    st.builds(
        _cut_one,
        st.builds(torus, st.integers(3, 14), st.integers(3, 10)),
        st.integers(0, 10**6),
    ),
    st.builds(_cut_one, st.builds(icosphere, st.integers(0, 2)), st.integers(0, 10**6)),
)


def _strip_bytes(res):
    stats = {k: v for k, v in res.stats.items() if k != "elapsed_ms"}
    return dumps_obj(res.mesh), dumps_strip_order(res.order, res.closed), json.dumps(stats)


@settings(max_examples=80, deadline=None)
@given(mesh=_open_property_meshes, seed=st.integers(0, 2**32 - 1))
def test_open_strip_is_verified_and_exactly_3n_minus_2_minus_2p(mesh, seed):
    mesh = relabel(mesh, random.Random(seed))
    n = mesh.n_triangles
    res = strip_with_boundary(mesh)
    assert verify_order(res.mesh, res.order, closed=False) == (True, None)
    spine = res.stats["spine_edges"]
    assert len(res.order) == res.mesh.n_triangles == 3 * n - 2 - 2 * spine
    assert len(res.order) == n + 2 * res.stats["splits"]
    assert _strip_bytes(strip_with_boundary(mesh)) == _strip_bytes(res)


# (input, output, splits, spine edges) on the depth-first tree; on the
# oracle's BFS tree the outputs are 3,404, 282, 1,440, 2,002 and 544
@pytest.mark.parametrize(
    "make,sizes",
    [
        (lambda: _open_grid(30, 20), (1200, 1238, 19, 1180)),
        (lambda: _open_grid(9, 7, 3), (114, 138, 12, 101)),
        (lambda: _holed_grid(20, 20, 5), (544, 1176, 316, 227)),
        (lambda: _open_grid(3, 200), (1200, 1204, 2, 1197)),
        (lambda: gen_mk(6), (190, 544, 177, 12)),
    ],
    ids=["grid-30x20", "grid-9x7-period-3", "holed-grid-20x20", "strip-3x200", "mk6"],
)
def test_open_strip_sizes_are_pinned(make, sizes):
    s = strip_with_boundary(make()).stats
    got = (s["input_triangles"], s["output_triangles"], s["splits"], s["spine_edges"])
    assert got == sizes


# sha256 of the `stripify-boundary` outputs (strip OBJ, strip order, stats
# without timings as sorted JSON). mk4 and fan12 were pinned while the strip
# was still built by `split_pair` edits of a mesh copy; their duals are a
# tree and a path, so every spanning tree is the same. holes.off was re-pinned
# when the tree became depth-first (280 -> 154 triangles, 83 -> 20 splits).
# grid.off and strip.off were pinned on the depth-first tree.
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
        "93828059beb89bf887e32262315087dbddca9c7270181f3393baa4d3fabd33e5",
        "94f84a412c8062c3be59fe3bf9e38c52919f09ca3a0c8debdf4e8f5b59fe1cf0",
        "ec53b8536fe52022ce84cdb454f5bd2e21396969ddabdcc8c12e27afaace13f8",
    ),
    "grid.off": (
        "5551239f91b7b4066cf1fad94f2a791fd519be657ae843476a90f190a0c9c0ba",
        "b8a77465d3a2a25134669f5311d2a7dc3c14c682794d235e6cb25ce7586ff630",
        "e7d3aa7f616f22f78c51ba6309c37a61316fbe7c9665f0f1a4a8858b3b42bc15",
    ),
    "strip.off": (
        "be4df1dfa61fcef8a890cd61299d02e081a0fc18681d2dc7776bca06e99be11d",
        "70a4d358339557ead53cb326d5cc38d9774006a4ab8e58b36d348e0c9ad3b4d8",
        "78971c3055b849e1e6d7af56aa750f90f28df842a96584fd5fc3c19a1a40e1a7",
    ),
}

# the relabelled inputs, saved as OFF
_GOLDEN_OPEN = {
    "holes.off": lambda: _open_grid(9, 7, 3),
    "grid.off": lambda: _open_grid(12, 10),
    "strip.off": lambda: _open_grid(3, 40),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDARY))
def test_stripify_boundary_output_bytes_are_pinned(tmp_path, name):
    path = tmp_path / name
    if name == "mk4.obj":
        assert main(["gen", "mk(4)", "-o", str(path), "--format", "obj"]) == 0
    elif name == "fan12.off":
        assert main(["gen", "fan(12)", "-o", str(path)]) == 0
    else:
        save_mesh(relabel(_GOLDEN_OPEN[name](), random.Random(5)), path)
    out = tmp_path / "out"
    assert main(["stripify-boundary", str(path), "--out", str(out)]) == 0
    stem = path.stem
    stats = json.loads((out / f"{stem}.stats.json").read_text())
    del stats["elapsed_ms"]
    assert stats.pop("schema_version") == 1
    digests = (
        hashlib.sha256((out / f"{stem}.strip.obj").read_bytes()).hexdigest(),
        hashlib.sha256((out / f"{stem}.strip.txt").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest(),
    )
    assert digests == GOLDEN_BOUNDARY[name]
