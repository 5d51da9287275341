"""Directed cycles, the threading table and space-filling curves."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    curve_obj_by_lines,
    dedupe_points,
    load_curve_json,
    reversed_cycle,
    sfc_curve_points,
    sfc_subcurve,
    triangle_points,
)
from singlestrip import fileio, sfc
from singlestrip.cli import main
from singlestrip.generators import icosphere, tetrahedron, torus
from singlestrip.mesh import Mesh, _slot, edge_key
from singlestrip.sfc import (
    CurveError,
    direct_cycle,
    dumps_curve_json,
    dumps_curve_obj,
    export_curve,
    generate_curve,
    CurvePolyline,
    STATES,
    _CHILD_STATE,
    _CHUNK,
    _ORDER,
    _curve_points,
    _index_text,
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
    rev = reversed_cycle(dc)
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
    got = set(map(tuple, curve.points.tolist()))
    assert len(curve.points) == 8
    assert len(got) == 8
    assert curve.closed
    mids = {_midpoint(res.mesh, e) for e in dc.exit}
    cents = set()
    for t in res.order:
        p = triangle_points(res.mesh, t)
        cents.add(tuple((p[0] + p[1] + p[2]) / 3.0))
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
        assert tuple(joint.tolist()) == _midpoint(res.mesh, dc.exit[i])
    # closure: the final point is the entry connector of triangle 0
    assert tuple(curve.points[-1].tolist()) == _midpoint(res.mesh, dc.entry[0])


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_planarity_per_triangle(tetra_strip, depth):
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    curve = generate_curve(res.mesh, dc, depth)
    block = 2 * 4**depth
    for i, t in enumerate(dc.triangles):
        pts = triangle_points(res.mesh, t)
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
        tri = tuple(tuple(p) for p in triangle_points(res.mesh, t))
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
        points=np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float), closed=True
    )
    path = tmp_path / "curve.json"
    export_curve(curve, path)
    back = load_curve_json(path)
    assert back.closed
    assert back.points.dtype == np.float64
    assert back.points.tolist() == curve.points.tolist()


def test_export_empty_curve_fails():
    with pytest.raises(CurveError, match="empty"):
        dumps_curve_json(CurvePolyline(points=[], closed=True))


def test_export_collapses_consecutive_duplicates():
    curve = CurvePolyline(points=[(0, 0, 0), (0, 0, 0), (1, 0, 0)], closed=False)
    text = dumps_curve_obj(curve)
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 2


_repeat_coord = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 0.3, float("nan"), float("inf")])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_repeat_coord, _repeat_coord, _repeat_coord), max_size=40))
def test_export_drops_repeats_as_tuple_comparison_did(rows):
    # repeats are drawn from a few values, signed zeros and nan among them;
    # the tuples are fresh floats read off the array, as generate_curve once
    # handed them to the exporters
    points = np.array(rows, dtype=float).reshape(-1, 3)
    expected = dedupe_points(list(map(tuple, points.tolist())))
    if not expected:
        with pytest.raises(CurveError, match="empty"):
            dumps_curve_json(CurvePolyline(points=points, closed=False))
        return
    kept = sfc._export_points(CurvePolyline(points=points, closed=False))
    assert kept.shape == (len(expected), 3)
    assert kept.tobytes() == np.array(expected, dtype=float).tobytes()


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
    for directed in (dc, reversed_cycle(dc)):
        points = generate_curve(res.mesh, directed, depth).points
        assert points.dtype == np.float64 and points.flags.c_contiguous
        assert points.shape == (len(directed) * 2 * 4**depth, 3)
        assert list(map(tuple, points.tolist())) == sfc_curve_points(res.mesh, directed, depth)


@pytest.mark.parametrize("depth", [2, 3])
def test_batches_are_invisible(torus_strip, monkeypatch, depth):
    res = torus_strip
    dc = direct_cycle(res.mesh, res.order)
    tris = [res.mesh.triangles[t] for t in dc.triangles]
    cells = np.array([[res.mesh.vertices[v] for v in tri] for tri in tris], dtype=float)
    states = np.array(
        [STATES.index((3 + _slot(tri, *e), 3 + _slot(tri, *x))) for tri, e, x in zip(tris, dc.entry, dc.exit)]
    )
    whole = _curve_points(cells, states, depth)
    # a budget just short of step + 1 triangles' leaves rounds down to step
    # triangles a batch, and step does not divide the cycle
    step = next(s for s in range(7, len(dc)) if len(dc) % s)
    monkeypatch.setattr(sfc, "_LEAF_BATCH", (step + 1) * 4**depth - 1)
    batches = []

    def spy(cells, states, depth):
        batches.append(len(cells))
        return _curve_points(cells, states, depth)

    monkeypatch.setattr(sfc, "_curve_points", spy)
    points = generate_curve(res.mesh, dc, depth).points
    assert len(batches) > 2 and set(batches[:-1]) == {step} and 0 < batches[-1] < step
    assert points.dtype == np.float64 and points.flags.c_contiguous
    assert points.tobytes() == whole.tobytes()
    assert list(map(tuple, points.tolist())) == sfc_curve_points(res.mesh, dc, depth)


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


def _rotated(mesh, angle=0.7, tilt=0.3):
    """The mesh turned about z by `angle` and about x by `tilt`, so that its
    coordinates take 17 significant digits."""
    c, s, ct, st_ = math.cos(angle), math.sin(angle), math.cos(tilt), math.sin(tilt)
    points = []
    for x, y, z in mesh.vertices:
        x, y = c * x - s * y, s * x + c * y
        points.append((x, ct * y - st_ * z, st_ * y + ct * z))
    return Mesh(points, [mesh.triangles[t] for t in mesh.alive_ids()])


# sha256 of the depth-4 curve OBJ of a rotated torus(8,6), as written by one
# f-string per vertex line: 51,200 points, so the vertex text spans several
# chunks of fileio._ROWS rows
GOLDEN_ROTATED_OBJ = "bdf8c1703970760e5ec26646b90fe065111000a29bfd3d3f736a44bd2a133610"


def test_rotated_curve_obj_bytes_are_pinned(tmp_path):
    res = stripify(_rotated(torus(8, 6)))
    curve = generate_curve(res.mesh, direct_cycle(res.mesh, res.order), 4)
    assert len(curve.points) > 4 * fileio._ROWS
    path = tmp_path / "curve.obj"
    export_curve(curve, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ROTATED_OBJ
    assert hashlib.sha256(dumps_curve_obj(curve).encode()).hexdigest() == GOLDEN_ROTATED_OBJ


# sha256 of the depth-5 curve OBJ of the same rotated torus(8,6), as written
# by one `str` per line-element index and an itemgetter gather of the vertex
# text: 204,800 points, so the line element has 6-digit indices and spans
# seven sfc._CHUNK pieces
GOLDEN_ROTATED_OBJ_DEPTH5 = "3566584357ff511f088a9da286bbfc1930e3b18dfc747b1d3ff82218bf640487"


def test_rotated_depth5_curve_obj_bytes_are_pinned(tmp_path):
    res = stripify(_rotated(torus(8, 6)))
    curve = generate_curve(res.mesh, direct_cycle(res.mesh, res.order), 5)
    assert 6 * _CHUNK < len(curve.points) <= 7 * _CHUNK and len(curve.points) >= 10**5
    path = tmp_path / "curve.obj"
    export_curve(curve, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_ROTATED_OBJ_DEPTH5
    assert hashlib.sha256(dumps_curve_obj(curve).encode()).hexdigest() == GOLDEN_ROTATED_OBJ_DEPTH5


# ranges of line-element indices: both ends near a power of ten up to 10**7
# (sfc.MAX_POINTS needs 7 digits), single indices, and whole `_CHUNK` pieces
# as `_obj_chunks` cuts them, ending on a chunk edge
_near_power = st.builds(lambda k, off: max(1, 10**k + off), st.integers(0, 7), st.integers(-40, 40))
_index_ranges = st.one_of(
    st.builds(lambda lo, n: (lo, lo + n), _near_power, st.integers(1, 300)),
    st.builds(lambda hi, n: (max(1, hi - n), hi), _near_power, st.integers(1, 300)).filter(lambda r: r[0] < r[1]),
    st.builds(lambda lo: (lo, lo + 1), _near_power),
    st.builds(
        lambda m, n: (max(1, 1 + m * _CHUNK - n), 1 + m * _CHUNK),
        st.integers(1, sfc.MAX_POINTS // _CHUNK),
        st.sampled_from([1, 7, _CHUNK]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(bounds=_index_ranges)
def test_index_text_joins_the_decimal_indices(bounds):
    lo, hi = bounds
    assert _index_text(lo, hi) == " ".join(map(str, range(lo, hi)))


# sha256 of the little-endian float64 bytes of the tetrahedron's depth-7
# curve, as generated with batches of one triangle: past depth 6 the top
# levels are now subdivided first, and the points must not move
GOLDEN_TETRA_DEPTH7 = "6450aa7c1401801f5b33e6b8c9473d38ca661610bd843cce14255c8bd80491b6"


def test_deep_curve_points_are_pinned(tetra_strip):
    dc = direct_cycle(tetra_strip.mesh, tetra_strip.order)
    assert 4 ** 7 > sfc._LEAF_BATCH
    points = generate_curve(tetra_strip.mesh, dc, 7).points
    assert hashlib.sha256(points.astype("<f8").tobytes()).hexdigest() == GOLDEN_TETRA_DEPTH7


def test_top_levels_first_equal_recursive_search(tetra_strip, monkeypatch):
    # a budget of 4 leaves puts depths 2 and 3 past one triangle a batch
    res = tetra_strip
    dc = direct_cycle(res.mesh, res.order)
    monkeypatch.setattr(sfc, "_LEAF_BATCH", 4)
    for depth in (2, 3):
        points = generate_curve(res.mesh, dc, depth).points
        assert list(map(tuple, points.tolist())) == sfc_curve_points(res.mesh, dc, depth)


def test_deep_generation_peak_memory_does_not_grow(tetra_strip):
    # past depth 6 one tetrahedron triangle holds more than _LEAF_BATCH
    # leaves; its top levels are subdivided first, so the transient stays one
    # batch's temporaries at depths 7 and 8
    dc = direct_cycle(tetra_strip.mesh, tetra_strip.order)
    transient = []
    for depth in (7, 8):
        tracemalloc.start()
        try:
            points = generate_curve(tetra_strip.mesh, dc, depth).points
            transient.append(tracemalloc.get_traced_memory()[1] - points.nbytes)
        finally:
            tracemalloc.stop()
        del points
    assert abs(transient[1] - transient[0]) <= 2**20, transient


def test_export_peak_memory_does_not_grow_with_the_curve(tmp_path):
    # export reads the curve's own array when no point repeats and formats
    # one chunk of rows at a time, so its peak is a chunk's text, whatever
    # the curve's length (depth 4 has four times the points of depth 3); the
    # torus is turned about z only, as the sfc-curve benchmark turns it
    res = stripify(_rotated(torus(16, 8), tilt=0.0))
    dc = direct_cycle(res.mesh, res.order)
    peaks = []
    for depth in (3, 4):
        curve = generate_curve(res.mesh, dc, depth)
        tracemalloc.start()
        try:
            export_curve(curve, tmp_path / "curve.obj")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20, peaks


def test_generation_peak_memory_does_not_grow_with_the_curve():
    # the triangles are subdivided in batches of _LEAF_BATCH leaf cells, so
    # what generation holds beside its result is one batch's temporaries,
    # whatever the depth; depth 4 already takes several batches here
    res = stripify(torus(16, 8))
    dc = direct_cycle(res.mesh, res.order)
    assert len(dc) * 4**4 > 2 * sfc._LEAF_BATCH
    transient = []
    for depth in (4, 5):
        tracemalloc.start()
        try:
            points = generate_curve(res.mesh, dc, depth).points
            transient.append(tracemalloc.get_traced_memory()[1] - points.nbytes)
        finally:
            tracemalloc.stop()
        del points
    assert abs(transient[1] - transient[0]) <= 2**20, transient


def test_export_obj_written_in_chunks(tmp_path, torus_strip, monkeypatch):
    dc = direct_cycle(torus_strip.mesh, torus_strip.order)
    curve = generate_curve(torus_strip.mesh, dc, 1)
    expected = curve_obj_by_lines(curve.points, closed=True)
    # vertex rows and line-element indices, each in chunks of 7
    monkeypatch.setattr(fileio, "_ROWS", 7)
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
