"""Directed cycles, the threading table and space-filling curves."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sfc_curve_points, sfc_subcurve
from singlestrip import sfc
from singlestrip.cli import main
from singlestrip.generators import icosphere, tetrahedron, torus
from singlestrip.mesh import edge_key
from singlestrip.sfc import (
    CurveError,
    direct_cycle,
    dumps_curve_json,
    dumps_curve_obj,
    export_curve,
    generate_curve,
    load_curve_json,
    CurvePolyline,
    STATES,
    _CHILD_STATE,
    _ORDER,
    _curve_points,
)
from singlestrip.striploop import stripify


def _midpoint(mesh, e):
    a, b = mesh.vertices[e[0]], mesh.vertices[e[1]]
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2)


@pytest.fixture(scope="module")
def tetra_strip():
    return stripify(tetrahedron())


@pytest.fixture(scope="module")
def torus_strip():
    return stripify(torus(10, 10))


def test_direct_cycle_tetra(tetra_strip):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    assert len(dc) == 4
    for ent, ext in zip(dc.entry, dc.exit):
        assert ent != ext
    # chain closes: exit of i == entry of i+1, cyclically
    for i in range(4):
        assert dc.exit[i] == dc.entry[(i + 1) % 4]


def test_direct_cycle_reverse_swaps_pairs(tetra_strip):
    dc = direct_cycle(tetra_strip.mesh, tetra_strip.order)
    rev = dc.reversed()
    assert rev.triangles[0] == dc.triangles[0]
    assert sorted(rev.triangles) == sorted(dc.triangles)
    fwd = {t: (e, x) for t, e, x in zip(dc.triangles, dc.entry, dc.exit)}
    for t, e, x in zip(rev.triangles, rev.entry, rev.exit):
        assert fwd[t] == (x, e)
    for i in range(len(rev)):
        assert rev.exit[i] == rev.entry[(i + 1) % len(rev)]


def test_direct_cycle_rejects_corrupt(tetra_strip):
    order = list(tetra_strip.order)
    order[1], order[2] = order[2], order[1]
    mesh = tetra_strip.mesh
    # swapping may or may not break adjacency on K4; force a broken one
    with pytest.raises(CurveError):
        direct_cycle(mesh, [order[0], order[0 - 1], order[0 - 1], order[0]])


def test_depth0_tetra_eight_distinct_points(tetra_strip):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, 0)
    assert len(curve.points) == 8
    assert len(set(curve.points)) == 8
    assert curve.closed
    mids = {_midpoint(res.mesh, e) for e in dc.exit}
    cents = set()
    for t in res.order:
        p = res.mesh.triangle_points(t)
        cents.add(tuple((p[0] + p[1] + p[2]) / 3.0))
    got = set(curve.points)
    assert mids <= got
    assert len(mids) == 4 and len(cents) == 4
    for c in cents:
        assert min(np.linalg.norm(np.array(c) - np.array(g)) for g in got) < 1e-12


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_point_count_closed_form(torus_strip, depth):
    res = torus_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, depth)
    assert len(curve.points) == len(res.order) * 2 * 4**depth


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_blocks_join_exactly_at_shared_edge_midpoints(torus_strip, depth):
    res = torus_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, depth)
    block = 2 * 4**depth
    k = len(dc)
    for i in range(k):
        joint = curve.points[(i + 1) * block - 1]
        assert joint == _midpoint(res.mesh, dc.exit[i])
    # closure: the final point is the entry connector of triangle 0
    assert curve.points[-1] == _midpoint(res.mesh, dc.entry[0])


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_planarity_per_triangle(tetra_strip, depth):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, depth)
    block = 2 * 4**depth
    for i, t in enumerate(dc.triangles):
        pts = res.mesh.triangle_points(t)
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        n = n / np.linalg.norm(n)
        scale = max(1.0, float(np.abs(pts).max()))
        for p in curve.points[i * block : (i + 1) * block]:
            d = abs(float(np.dot(np.asarray(p) - pts[0], n)))
            assert d <= 1e-12 * scale


def _oracle_cells(tri, depth):
    """Independent midpoint subdivision into 4^depth cells."""
    cells = [tri]
    for _ in range(depth):
        nxt = []
        for a, b, c in cells:
            ab = tuple((np.asarray(a) + b) / 2.0)
            bc = tuple((np.asarray(b) + c) / 2.0)
            ca = tuple((np.asarray(c) + a) / 2.0)
            nxt.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        cells = nxt
    return cells


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_every_cell_contains_a_curve_point(tetra_strip, depth):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, depth)
    block = 2 * 4**depth
    for i, t in enumerate(dc.triangles):
        tri = tuple(tuple(p) for p in res.mesh.triangle_points(t))
        pts = np.array(curve.points[i * block : (i + 1) * block])
        for cell in _oracle_cells(tri, depth):
            centroid = np.mean(np.array(cell), axis=0)
            dist = np.min(np.linalg.norm(pts - centroid, axis=1))
            assert dist < 1e-9


def test_depth_guard():
    res = stripify(tetrahedron())
    dc = direct_cycle(res.mesh, res.order)
    with pytest.raises(CurveError):
        generate_curve(res.mesh, dc, 13)
    with pytest.raises(CurveError):
        generate_curve(res.mesh, dc, -1)


def test_export_obj_three_point_open():
    curve = CurvePolyline(points=[(0, 0, 0), (1, 0, 0), (1, 1, 0)], closed=False)
    text = dumps_curve_obj(curve)
    lines = text.strip().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 3
    assert lines[-1] == "l 1 2 3"


def test_export_obj_closed_wraps():
    curve = CurvePolyline(points=[(0, 0, 0), (1, 0, 0), (1, 1, 0)], closed=True)
    assert dumps_curve_obj(curve).strip().splitlines()[-1] == "l 1 2 3 1"


def test_export_json_round_trip(tmp_path):
    curve = CurvePolyline(
        points=[(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True
    )
    path = tmp_path / "curve.json"
    export_curve(curve, path)
    back = load_curve_json(path)
    assert back.closed
    assert back.points == curve.points


def test_export_empty_curve_fails():
    with pytest.raises(CurveError, match="empty"):
        dumps_curve_json(CurvePolyline(points=[], closed=True))


def test_export_collapses_consecutive_duplicates():
    curve = CurvePolyline(points=[(0, 0, 0), (0, 0, 0), (1, 0, 0)], closed=False)
    text = dumps_curve_obj(curve)
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 2


# -- threading table and bit-identity with the recursive search ------------------

# a cell's labels: corners a, b, c, then midpoints ab, bc, ca, as pairs of
# cell vertices; sub-cells (a,mab,mca), (b,mbc,mab), (c,mca,mbc), (mab,mbc,mca)
LABEL_ENDS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))
SUB_CELLS = ((0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5))


def _label_points(cell, mid):
    return [cell[u] if u == v else mid(cell[u], cell[v]) for u, v in LABEL_ENDS]


def test_threading_table_covers_every_state():
    assert len(STATES) == 30 == len(set(STATES))
    assert all(i != o and 0 <= i < 6 and 0 <= o < 6 for i, o in STATES)
    assert _ORDER.shape == _CHILD_STATE.shape == (30, 4)


@pytest.mark.parametrize("state", range(30))
def test_threading_table_chains_exactly(state):
    # dyadic reference triangle: every label of every sub-cell is an exact
    # integer point
    def mid(p, q):
        assert all((x + y) % 2 == 0 for x, y in zip(p, q))
        return tuple((x + y) // 2 for x, y in zip(p, q))

    parent = _label_points(((8, 0, 0), (0, 8, 0), (0, 0, 8)), mid)
    entry, exit_ = STATES[state]
    order = [int(k) for k in _ORDER[state]]
    assert sorted(order) == [0, 1, 2, 3]
    waypoints = [parent[entry]]
    for k, child in enumerate(order):
        labels = _label_points([parent[i] for i in SUB_CELLS[child]], mid)
        c_in, c_out = STATES[_CHILD_STATE[state][k]]
        assert labels[c_in] == waypoints[-1], f"child {k} does not enter where child {k - 1} left"
        waypoints.append(labels[c_out])
    assert waypoints[-1] == parent[exit_]
    assert len(set(waypoints)) == 5


@pytest.fixture(scope="module")
def ico_strip():
    return stripify(icosphere(1))


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", ["tetra_strip", "torus_strip", "ico_strip"])
def test_curve_equals_recursive_search(request, name, depth):
    res = request.getfixturevalue(name)
    dc = direct_cycle(res.mesh, res.order)
    for directed in (dc, dc.reversed()):
        points = generate_curve(res.mesh, directed, depth).points
        assert all(type(x) is float for x in points[0])
        assert points == sfc_curve_points(res.mesh, directed, depth)


_coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord, _coord)


def _non_degenerate(cell):
    a, b, c = (np.asarray(p) for p in cell)
    edges = [np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c)]
    area2 = np.linalg.norm(np.cross(b - a, c - a))
    return min(edges) > 1e-3 and area2 > 1e-3 * max(edges) ** 2


@settings(max_examples=50, deadline=None)
@given(
    cell=st.tuples(_point, _point, _point).filter(_non_degenerate),
    state=st.integers(0, 29),
    depth=st.integers(0, 3),
)
def test_curve_points_equal_recursive_search_in_any_state(cell, state, depth):
    def mid(p, q):
        return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0, (p[2] + q[2]) / 2.0)

    labels = _label_points(cell, mid)
    entry, exit_ = STATES[state]
    expected = []
    sfc_subcurve(cell, labels[entry], labels[exit_], depth, expected)
    got = _curve_points(np.array([cell], dtype=float), np.array([state]), depth)
    assert len(got) == 2 * 4**depth
    assert list(map(tuple, got.tolist())) == expected


def test_generate_curve_rejects_foreign_edges(tetra_strip):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    a, b, c = res.mesh.triangles[dc.triangles[0]]
    foreign = next(v for v in range(res.mesh.n_vertices) if v not in (a, b, c))
    dc.exit[0] = edge_key(a, foreign)
    for depth in (0, 2):
        with pytest.raises(CurveError, match="not an edge"):
            generate_curve(res.mesh, dc, depth)


# sha256 of `sfc torus(8,6) --depth 3`, as written by the recursive search
GOLDEN_SFC = {
    "obj": "cce9ae709fa5b9b40b4c0b0af36f7d6e8eee69dc32fdce5d429106698441931e",
    "json": "b0d098a448c46e294a7c8a83abea8922b9b1ac4fdfc1edff4cbc763361209b61",
}


@pytest.mark.parametrize("fmt", ["obj", "json"])
def test_sfc_output_bytes_are_pinned(tmp_path, fmt):
    mesh_path = tmp_path / "t86.off"
    assert main(["gen", "torus(8,6)", "-o", str(mesh_path)]) == 0
    out = tmp_path / "out"
    argv = ["sfc", str(mesh_path), "--depth", "3", "--out", str(out), "--curve-format", fmt]
    assert main(argv) == 0
    digest = hashlib.sha256((out / f"t86.curve.{fmt}").read_bytes()).hexdigest()
    assert digest == GOLDEN_SFC[fmt]


def test_export_obj_written_in_chunks(tmp_path, torus_strip, monkeypatch):
    dc = direct_cycle(torus_strip.mesh, torus_strip.order)
    curve = generate_curve(torus_strip.mesh, dc, 1)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in curve.points]
    lines.append("l " + " ".join(map(str, range(1, len(curve.points) + 1))) + " 1")
    expected = "\n".join(lines) + "\n"
    monkeypatch.setattr(sfc, "_CHUNK", 7)
    path = tmp_path / "curve.obj"
    export_curve(curve, path)
    assert path.read_text() == expected
    assert dumps_curve_obj(curve) == expected


def test_point_budget_refuses_before_allocating(tetra_strip, monkeypatch):
    dc = direct_cycle(tetra_strip.mesh, tetra_strip.order)
    # 4 * 2 * 4**12 = 134M points; refused at once, without allocating them
    with pytest.raises(CurveError, match="over the budget"):
        generate_curve(tetra_strip.mesh, dc, sfc.MAX_DEPTH)
    monkeypatch.setattr(sfc, "MAX_POINTS", 4 * 2 * 4)
    assert len(generate_curve(tetra_strip.mesh, dc, 1).points) == 32
    with pytest.raises(CurveError, match="needs 128 points"):
        generate_curve(tetra_strip.mesh, dc, 2)
