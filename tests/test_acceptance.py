"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Budgeted criteria assert their wall-clock limits too.
"""

import random
import time

import numpy as np

from oracles import (
    as_partner_list,
    as_table,
    assert_coplanar,
    complete_graph,
    cube_graph,
    dual_by_shared_vertices,
    insert_centroid,
    max_matching_size,
    mk_triangle_count,
    petersen_graph,
    triangle_diameter,
    triangle_points,
    vertex_triangles,
)
from singlestrip.boundary import strip_with_boundary
from singlestrip.generators import gen_mk, icosphere, octahedron, tetrahedron, torus
from singlestrip.matching import blossom_maximum_matching, perfect_match_dual, validate_matching
from singlestrip.mesh import build_dual
from singlestrip.sfc import direct_cycle, generate_curve
from singlestrip.striploop import extract_cycles, merge_nodal, stripify, verify_order


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def _closed_matrix():
    meshes = [("tetrahedron", tetrahedron()), ("octahedron", octahedron())]
    for p, q in ((4, 3), (10, 10), (20, 10), (40, 25)):
        meshes.append((f"torus({p},{q})", torus(p, q)))
    for s in range(5):
        meshes.append((f"icosphere({s})", icosphere(s)))
    return meshes


def test_criterion_1_worst_case_bound():
    t0 = time.perf_counter()
    results = {}
    for name, mesh in _closed_matrix():
        n = mesh.n_triangles
        res = stripify(mesh)
        out = res.stats["output_triangles"]
        assert out < 1.5 * n, f"{name}: {out} >= 1.5 * {n}"
        results[name] = (n, out)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    worst = max(100.0 * (o - n) / n for n, o in results.values())
    _report(1, f"output < 1.5n on all {len(results)} meshes "
               f"(worst increase {worst:.2f}%), {elapsed:.1f}s")


def test_criterion_2_practical_increase():
    t0 = time.perf_counter()
    cases = [("torus(20,10)", torus(20, 10)), ("icosphere(2)", icosphere(2)),
             ("torus(40,25)", torus(40, 25))]
    increases = {}
    for name, mesh in cases:
        res = stripify(mesh)
        inc = res.stats["percent_increase"]
        assert inc <= 3.0, f"{name}: increase {inc}% > 3%"
        increases[name] = inc
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s (budget 10s)"
    _report(2, f"increases {increases} all <= 3%, {elapsed:.1f}s")


def test_criterion_3_hamiltonian_validity():
    t0 = time.perf_counter()
    checked = 0
    for name, mesh in _closed_matrix():
        res = stripify(mesh)
        ok, why = verify_order(res.mesh, res.order, closed=True)
        assert ok, f"{name}: {why}"
        checked += 1
    rng = random.Random(1234)
    for _ in range(100):
        p, q = rng.randint(3, 12), rng.randint(3, 12)
        res = stripify(torus(p, q))
        ok, why = verify_order(res.mesh, res.order, closed=True)
        assert ok, f"torus({p},{q}): {why}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (budget 60s)"
    _report(3, f"independent verifier passed on {checked} stripified meshes, {elapsed:.1f}s")


def test_criterion_4_matching_oracle_equivalence():
    t0 = time.perf_counter()
    graphs = {
        "K4": complete_graph(4),
        "cube": cube_graph(),
        "petersen": petersen_graph(),
    }
    for k in (0, 1, 2):
        graphs[f"M_{k} dual"] = dual_by_shared_vertices(gen_mk(k))
    for name, adj in graphs.items():
        nb, alive = as_table(adj)
        match = [-1] * len(alive)
        blossom_maximum_matching(nb, alive, match)
        got = (len(match) - match.count(-1)) // 2
        want = max_matching_size(adj)
        assert got == want, f"{name}: blossom {got} != brute force {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s (budget 30s)"
    _report(4, f"blossom == brute force on {sorted(graphs)} ({elapsed:.1f}s)")


def test_criterion_5_no_unmatched_three_cycles():
    meshes = {name: mesh for name, mesh in _closed_matrix() if mesh.n_triangles <= 2000}
    seeded = torus(10, 10)
    rng = random.Random(77)
    originals = rng.sample(range(seeded.n_triangles), 55)
    for t in originals:
        insert_centroid(seeded, t)
    assert sum(1 for ts in vertex_triangles(seeded).values() if len(ts) == 3) >= 50
    meshes["torus(10,10)+55 degree-3 seeds"] = seeded
    nested = icosphere(1)
    for t in (0, 17, 33):
        _g, children = insert_centroid(nested, t)
        insert_centroid(nested, children[0])
    meshes["icosphere(1)+nested seeds"] = nested

    for name, mesh in meshes.items():
        res = stripify(mesh)
        # re-derive the matching from the final cycle: consecutive cycle
        # triangles are unmatched neighbors, the remaining neighbor is the
        # match; scan all unmatched cycles for length 3
        dual = build_dual(res.mesh)
        in_cycle = set()
        k = len(res.order)
        for i in range(k):
            in_cycle.add(frozenset((res.order[i], res.order[(i + 1) % k])))
        partner = {}
        for t, nbrs in dual.items():
            others = [n for n in nbrs if frozenset((t, n)) not in in_cycle]
            assert len(others) <= 1
            if others:
                partner[t] = others[0]
        partner = as_partner_list(partner, len(res.mesh.triangles))
        cs = extract_cycles(res.mesh, partner) if -1 not in partner else None
        if cs is not None:
            assert all(len(c) >= 4 for c in cs.cycles), f"{name}: 3-cycle in output"
        # and on the pipeline's own intermediate state: rerun the stages
        work = mesh.copy()
        from singlestrip.striploop import _vertex_fans, eliminate_three_cycles, restore_three_cycles

        stack = [] if work.n_triangles == 4 else eliminate_three_cycles(work, _vertex_fans(work))
        partner2 = perfect_match_dual(work).partner
        restore_three_cycles(work, partner2, stack)
        d2 = build_dual(work)
        cs2 = extract_cycles(work, partner2)
        assert all(len(c) >= 4 for c in cs2.cycles), f"{name}: 3-cycle after restore"
        assert cs2.count <= len(d2) / 4
    _report(5, f"no unmatched 3-cycles after restore on {len(meshes)} meshes "
               f"(incl. {sum(1 for ts in vertex_triangles(seeded).values() if len(ts) == 3)}"
               " seeded degree-3 vertices)")


def test_criterion_6_nodal_merge_soundness():
    total_checked = 0
    for name, mesh in _closed_matrix():
        if mesh.n_triangles > 2000:
            continue
        dual = build_dual(mesh)
        work = mesh.copy()
        stack = [] if work.n_triangles == 4 else None
        # run the pre-merge stages on the untouched mesh copy
        from singlestrip.striploop import _vertex_fans, eliminate_three_cycles, restore_three_cycles

        # taken before elimination and read again after restoration, as in stripify
        fans = _vertex_fans(work)
        if stack is None:
            stack = eliminate_three_cycles(work, fans)
        partner = perfect_match_dual(work).partner
        restore_three_cycles(work, partner, stack)
        d = build_dual(work)
        cs = extract_cycles(work, partner)
        initial = cs.count
        cs2, merges = merge_nodal(work, partner, cs, fans)
        validate_matching(work.neighbours, work.alive, partner)
        matched = len(partner) - partner.count(-1)
        assert matched == len(d), f"{name}: matching not perfect after merging"
        assert all(m >= 2 for _v, m in merges)
        after = extract_cycles(work, partner).count  # a fresh walk, not the union-find
        assert initial - after == sum(m - 1 for _v, m in merges), name
        assert cs2.count == after, name
        total_checked += len(merges)
    _report(6, f"all {total_checked} accepted toggles kept the matching perfect; "
               "cycle-count deltas equal sum(m-1)")


def test_criterion_7_boundary_tight_bound():
    t0 = time.perf_counter()
    for k in range(1, 11):
        n = mk_triangle_count(k)
        res = strip_with_boundary(gen_mk(k))
        want = 3 * n - 2 - 4 * k
        got = res.stats["output_triangles"]
        assert got == want, f"M_{k}: {got} != {want}"
        assert len(res.order) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"criterion 7 took {elapsed:.1f}s (budget 20s)"
    _report(7, f"strip size == 3n-2-4k (the proven minimum) for k=1..10, {elapsed:.1f}s")


def test_criterion_8_coplanarity():
    # each output triangle, its midpoints replaced by their edges' ends, is
    # an input triangle, and each midpoint lies in that triangle's plane
    checked = 0
    for _n, mesh in _closed_matrix():
        if mesh.n_triangles <= 2000:
            checked += assert_coplanar(mesh, stripify(mesh).mesh)
    res = strip_with_boundary(gen_mk(6))
    assert res.stats["splits"] > 0
    checked += assert_coplanar(gen_mk(6), res.mesh)
    assert checked > 0
    _report(8, f"{checked} midpoints in the planes of the input triangles under them within 1e-12")


def _block_points(curve, dc, depth):
    size = 2 * 4**depth
    return [curve.points[i * size : (i + 1) * size] for i in range(len(dc))]


def _oracle_cells(tri, depth):
    cells = [tuple(map(tuple, tri))]
    for _ in range(depth):
        nxt = []
        for a, b, c in cells:
            a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
            ab, bc, ca = tuple((a + b) / 2), tuple((b + c) / 2), tuple((c + a) / 2)
            nxt.extend(
                [(tuple(a), ab, ca), (ab, tuple(b), bc), (ca, bc, tuple(c)), (ab, bc, ca)]
            )
        cells = nxt
    return cells


def test_criterion_9_space_filling_curves():
    t0 = time.perf_counter()
    for name, mesh in (("tetrahedron", tetrahedron()), ("torus(10,10)", torus(10, 10))):
        res = stripify(mesh)
        dmax = max(triangle_diameter(mesh, t) for t in mesh.alive_ids())
        dc = direct_cycle(res.mesh, res.order)
        mids = {}
        for i in range(len(dc)):
            e = dc.exit[i]
            a, b = res.mesh.vertices[e[0]], res.mesh.vertices[e[1]]
            mids[i] = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2)
        prev_radius = None
        for depth in range(5):
            curve = generate_curve(res.mesh, dc, depth)
            assert curve.closed
            blocks = _block_points(curve, dc, depth)
            # continuity: zero gap at every triangle joint, and at the wrap
            for i in range(len(dc)):
                assert tuple(blocks[i][-1].tolist()) == mids[i], f"{name} depth {depth}: joint {i} gaps"
            entry0 = dc.entry[0]
            a, b = res.mesh.vertices[entry0[0]], res.mesh.vertices[entry0[1]]
            wrap = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2)
            assert tuple(curve.points[-1].tolist()) == wrap
            # every depth-d cell holds a curve point (its centroid), hence
            # covering radius <= cell diameter <= 2^-d * dmax
            radius = 0.0
            for i, t in enumerate(dc.triangles):
                pts = np.asarray(blocks[i])
                cells = _oracle_cells(triangle_points(res.mesh, t), depth)
                cents = np.array([np.mean(np.asarray(c), axis=0) for c in cells])
                dist = np.sqrt(
                    ((cents[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                )
                nearest = dist.min(axis=1)
                assert nearest.max() < 1e-9, f"{name} depth {depth}: cell missing its centroid"
                corners = np.asarray([p for c in cells for p in c])
                cdist = np.sqrt(((corners[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
                radius = max(radius, float(cdist.min(axis=1).max()))
            bound = dmax / 2**depth
            assert radius <= bound + 1e-12, f"{name} depth {depth}: radius {radius} > {bound}"
            if prev_radius is not None:
                assert radius < prev_radius, f"{name} depth {depth}: radius not decreasing"
            prev_radius = radius
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.1f}s (budget 30s)"
    _report(9, f"curves closed, gap-free, covering radius <= 2^-d * diameter and "
               f"strictly decreasing for depths 0..4, {elapsed:.1f}s")


def test_criterion_10_performance_96k():
    t0 = time.perf_counter()
    mesh = torus(300, 160)
    assert mesh.n_triangles == 96000
    res = stripify(mesh)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"96k-triangle stripify took {elapsed:.1f}s (budget 60s)"
    # perfect matching achieved: greedy pairs plus one pair per augmentation
    assert res.stats["greedy_matched"] + 2 * res.stats["augmentations"] == 96000
    ok, why = verify_order(res.mesh, res.order, closed=True)
    assert ok, why
    _report(10, f"torus(300,160) with 96000 triangles stripified end-to-end in "
                f"{elapsed:.1f}s (< 60s), matching perfect, "
                f"+{res.stats['percent_increase']}%")
