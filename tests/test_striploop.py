"""Three-cycle elimination, cycle extraction, nodal merging, tree splits,
and the assembled Hamiltonian cycle."""

import hashlib
import json
import math
import random
import time
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_perfect_matchings,
    as_partner_list,
    as_partner_map,
    assert_coplanar,
    assert_same_as_checked_rebuild,
    coplanar_parents,
    cycle_lengths,
    dual_rows,
    edge_triangles,
    eliminate_three_cycles_by_sets,
    extract_cycles_by_dict,
    flip_edges,
    insert_centroid,
    merge_nodal_full_sweep,
    other_triangle,
    punch_holes,
    relabel,
    spanning_tree_by_loop,
    triangle_edges,
    unmatched_cycles,
    verify_order_by_sets,
    vertex_fans_by_loop,
    vertex_triangles,
)
from singlestrip import striploop
from singlestrip.boundary import strip_with_boundary
from singlestrip.cli import main
from singlestrip.fileio import save_mesh
from singlestrip.generators import gen_mk, icosphere, octahedron, tetrahedron, torus
from singlestrip.matching import (
    MatchingError,
    blossom_maximum_matching,
    perfect_match_dual,
    validate_matching,
)
from singlestrip.mesh import Mesh, ValidationError, build_dual, split_pair, validate
from singlestrip.sfc import CurveError
from singlestrip.striploop import (
    MIN_TRIANGLES,
    CycleSet,
    PipelineError,
    StageTimer,
    _fan_order,
    _vertex_fans,
    assemble_cycle,
    eliminate_three_cycles,
    extract_cycles,
    find,
    merge_nodal,
    restore_three_cycles,
    spanning_tree_splits,
    stripify,
    verify_order,
)


def _live_triangle_sets(mesh):
    return {frozenset(mesh.triangles[t]) for t in mesh.alive_ids()}


def _before_nodal(mesh):
    """(work mesh, dual, partner, cycle set) as `stripify` has them just
    before nodal merging."""
    work = mesh.copy()
    stack = eliminate_three_cycles(work, _vertex_fans(work))
    partner = perfect_match_dual(work).partner
    restore_three_cycles(work, partner, stack)
    dual = dual_rows(work)
    return work, dual, partner, extract_cycles(work, partner)


# -- elimination ----------------------------------------------------------------


def _isolated_vertex_torus():
    # vertex 0 is on no triangle
    base = torus(5, 4)
    return Mesh([(9.0, 9.0, 9.0)] + base.vertices, [tuple(v + 1 for v in t) for t in base.triangles])


def _eliminated_centroid_torus():
    # dead slots, and the removed centroids left on no live triangle
    mesh = torus(6, 5)
    for t in (0, 9, 22, 23):
        insert_centroid(mesh, t)
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    return mesh


def _holed_icosphere():
    mesh = relabel(icosphere(2), random.Random(4))
    punch_holes(mesh, (0, 5, 6, 40))
    return mesh


@pytest.mark.parametrize(
    "make",
    [_isolated_vertex_torus, _eliminated_centroid_torus, _holed_icosphere, tetrahedron],
    ids=["isolated-vertex", "eliminated", "holed", "tetrahedron"],
)
def test_vertex_fans_equal_the_loop(make):
    mesh = make()
    assert _vertex_fans(mesh) == vertex_fans_by_loop(mesh)


def test_vertex_fans_mark_vertices_on_no_live_triangle():
    count, anchor = _vertex_fans(_eliminated_centroid_torus())
    empty = [v for v, k in enumerate(count) if k == 0]
    assert len(empty) == 4 and all(anchor[v] == -1 for v in empty)
    assert _vertex_fans(_isolated_vertex_torus())[1][0] == -1


def test_eliminate_single_config():
    mesh = icosphere(0)
    insert_centroid(mesh, 0)
    n = mesh.n_triangles
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert len(stack) == 1
    assert mesh.n_triangles == n - 2
    assert validate(mesh, "closed").ok


def test_eliminate_icosahedron_unchanged():
    mesh = icosphere(0)  # every vertex has 5 incident triangles
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert stack == []
    assert mesh.n_triangles == 20


def test_eliminate_nested_double_centroid():
    mesh = icosphere(0)
    before = _live_triangle_sets(mesh)
    _g1, children = insert_centroid(mesh, 0)
    insert_centroid(mesh, children[0])
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert len(stack) == 2
    assert _live_triangle_sets(mesh) == before
    assert validate(mesh, "closed").ok


def test_eliminate_names_the_anchor_of_a_fan_that_does_not_close(monkeypatch):
    mesh = icosphere(0)
    v, fan = insert_centroid(mesh, 0)
    monkeypatch.setattr(striploop, "_fan_order", lambda *args: None)
    with pytest.raises(PipelineError, match=f"^vertex {v} has 3 triangles but no closed fan$") as info:
        eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert info.value.triangles == (min(fan),)


def test_eliminate_stops_at_tetrahedron_scale():
    # a twice-subdivided triangle of a tetrahedron cascades down to n=4
    mesh = tetrahedron()
    _, children = insert_centroid(mesh, 0)
    insert_centroid(mesh, children[1])
    assert mesh.n_triangles == 8
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert mesh.n_triangles >= 4


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("torus"), st.integers(3, 12), st.integers(3, 12)),
        st.tuples(st.just("icosphere"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("tetrahedron"), st.just(0), st.just(0)),
    ),
    centroids=st.integers(0, 30),
    relabel_after=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=("tetrahedron", 0, 0), centroids=6, relabel_after=False, seed=1)
@example(shape=("icosphere", 0, 0), centroids=20, relabel_after=True, seed=2)
def test_eliminate_matches_set_based_oracle(shape, centroids, relabel_after, seed):
    # centroids go into any live triangle, earlier fans' included, so fans
    # nest and elimination cascades; tetrahedra cascade into the size floor
    kind, a, b = shape
    rng = random.Random(seed)
    base = {"torus": lambda: torus(a, b), "icosphere": lambda: icosphere(a),
            "tetrahedron": tetrahedron}[kind]()
    mesh = relabel(base, rng)
    for _ in range(centroids):
        insert_centroid(mesh, rng.choice(mesh.alive_ids()))
    if relabel_after:
        mesh = relabel(mesh, rng)
    oracle = mesh.copy()
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert stack == eliminate_three_cycles_by_sets(oracle)
    assert mesh.neighbours == oracle.neighbours
    assert mesh.alive == oracle.alive
    assert mesh.triangles == oracle.triangles
    assert mesh.n_triangles >= MIN_TRIANGLES


@settings(max_examples=25, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("torus"), st.integers(3, 10), st.integers(3, 10)),
        st.tuples(st.just("icosphere"), st.integers(0, 2), st.just(0)),
    ),
    centroids=st.integers(0, 12),
    flips=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_compacted_output_equals_a_checked_rebuild(shape, centroids, flips, seed):
    # `compact` keeps the working table, renumbered, and checks nothing;
    # relabelled inputs make cycles, so most outputs hold split children
    kind, a, b = shape
    rng = random.Random(seed)
    # flip first: the centroid edits then leave a retired slot, appended rows
    # and repointed neighbours for `stripify` to read
    mesh = flip_edges(relabel(torus(a, b) if kind == "torus" else icosphere(a), rng), rng, flips)
    for _ in range(centroids):
        insert_centroid(mesh, rng.choice(mesh.alive_ids()))
    result = stripify(mesh)
    assert_same_as_checked_rebuild(result.mesh)
    # the end-to-end contract: one verified cycle, k cycles joined by k - 1
    # splits, under 1.5n triangles, and the same output on a rerun
    assert verify_order_by_sets(result.mesh, result.order, closed=True) == (True, None)
    stats = result.stats
    new_vertices = result.mesh.n_vertices - mesh.n_vertices
    assert stats["splits"] == new_vertices == stats["cycles_after_nodal"] - 1
    coplanar_parents(mesh, result.mesh)
    assert result.mesh.n_triangles == mesh.n_triangles + 2 * stats["splits"]
    assert result.mesh.n_triangles < 1.5 * mesh.n_triangles
    again = stripify(mesh)
    assert (again.mesh.triangles, again.order) == (result.mesh.triangles, result.order)


# -- restoration ----------------------------------------------------------------


def test_restore_empty_stack_is_identity(octa):
    partner = perfect_match_dual(octa).partner
    before = list(partner)
    restore_three_cycles(octa, partner, [])
    assert partner == before


def test_restore_matches_owner_and_pairs_rest():
    mesh = torus(5, 4)
    for t in (0, 7, 14):
        insert_centroid(mesh, t)
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert len(stack) == 3
    partner = perfect_match_dual(mesh).partner
    snapshot = {cfg.replacement: partner[cfg.replacement] for cfg in stack}
    owners = {}
    for cfg in stack:
        x = snapshot[cfg.replacement]
        e = next(
            e for e in triangle_edges(mesh, cfg.replacement)
            if other_triangle(mesh, e, cfg.replacement) == x
        )
        owner = next(t for t in cfg.parents if set(e) <= set(mesh.triangles[t]))
        owners[cfg.replacement] = (owner, x, cfg)
    restore_three_cycles(mesh, partner, stack)
    validate_matching(mesh.neighbours, mesh.alive, partner)
    assert len(as_partner_map(partner)) == mesh.n_triangles
    for owner, x, cfg in owners.values():
        if x not in snapshot:  # x itself may be a replacement restored later
            assert partner[owner] == x
        rest = [t for t in cfg.parents if t != owner]
        assert partner[rest[0]] == rest[1]


def test_restore_errors_name_the_replacement():
    mesh = torus(5, 4)
    insert_centroid(mesh, 0)
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    partner = perfect_match_dual(mesh).partner
    r = stack[0].replacement
    far = next(u for u in mesh.alive_ids() if u != r and u not in mesh.neighbours[3 * r : 3 * r + 3])
    with pytest.raises(PipelineError, match=f"^replacement {r} is matched to non-neighbor {far}$") as info:
        restore_three_cycles(mesh.copy(), partner[:r] + [far] + partner[r + 1 :], stack)
    assert info.value.triangles == (r, far)
    partner[r] = -1
    with pytest.raises(PipelineError, match=f"^replacement triangle {r} is unmatched;") as info:
        restore_three_cycles(mesh.copy(), partner, stack)
    assert info.value.triangles == (r,)


def test_restore_leaves_no_unmatched_three_cycle():
    mesh = icosphere(1)
    rng = random.Random(3)
    for t in rng.sample(range(mesh.n_triangles), 12):
        insert_centroid(mesh, t)
    stack = eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert stack
    partner = perfect_match_dual(mesh).partner
    restore_three_cycles(mesh, partner, stack)
    dual = build_dual(mesh)
    cycles = extract_cycles(mesh, partner)
    assert all(len(c) >= 4 for c in cycles.cycles)
    # after elimination there can be at most n/4 cycles
    assert cycles.count <= len(dual) / 4


# -- cycle extraction -------------------------------------------------------------


def test_extract_tetra_single_4cycle(tetra):
    partner = perfect_match_dual(tetra).partner
    cs = extract_cycles(tetra, partner)
    assert cycle_lengths(cs) == [4]


def test_extract_cube_graph_both_matching_classes(octa):
    # by exhaustive oracle the octahedron dual (cube graph) has 9 perfect
    # matchings giving two 4-cycles or one 8-cycle
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    matchings = all_perfect_matchings(adj)
    assert len(matchings) == 9
    seen = set()
    for partner in matchings:
        cs = extract_cycles(octa, as_partner_list(partner, 8))
        seen.add(tuple(sorted(cycle_lengths(cs))))
        oracle = sorted(len(c) for c in unmatched_cycles(adj, partner))
        assert sorted(cycle_lengths(cs)) == oracle
    assert seen == {(4, 4), (8,)}


def test_extract_partitions_all_triangles(torus400):
    partner = perfect_match_dual(torus400).partner
    cs = extract_cycles(torus400, partner)
    assert sum(cycle_lengths(cs)) == 400
    assert sorted(t for c in cs.cycles for t in c) == torus400.alive_ids()


def test_extract_rejects_broken_matching(tetra):
    with pytest.raises(PipelineError, match="unmatched dual edges"):
        extract_cycles(tetra, [-1] * 4)


def test_extract_names_a_corrupted_partner_entry(torus400):
    partner = perfect_match_dual(torus400).partner
    t = 37
    row = torus400.neighbours[3 * t : 3 * t + 3]
    partner[t] = next(u for u in range(400) if u != t and u not in row)
    with pytest.raises(PipelineError, match=f"^triangle {t} has 3 unmatched dual edges") as info:
        extract_cycles(torus400, partner)
    assert info.value.triangles == (t,)
    assert PipelineError("x").triangles == ()


@pytest.mark.parametrize("k", [2, 3])
def test_extract_on_open_meshes_matches_the_dict_oracle(k):
    # boundary slots: a matched triangle with a boundary edge among its
    # unmatched ones, and an unmatched one, raise as the oracle does; an
    # unmatched triangle's -1 is no match for its boundary slot's -1
    mesh = gen_mk(k)
    grown = [-1] * mesh.n_triangles
    blossom_maximum_matching(mesh.neighbours, mesh.alive, grown)
    for partner in ([-1] * mesh.n_triangles, grown):
        with pytest.raises(PipelineError) as want:
            extract_cycles_by_dict(mesh, as_partner_map(partner))
        with pytest.raises(PipelineError) as got:
            extract_cycles(mesh, partner)
        assert str(got.value) == str(want.value)


def test_extract_takes_no_boundary_slot_for_a_partner():
    # an annulus of 12 triangles, each with one boundary edge: read as a
    # match, an unmatched triangle's -1 would leave two free neighbours and
    # let the walk close around the band
    n = 6
    outer = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n), 0.0) for i in range(n)]
    vertices = outer + [(x / 2, y / 2, 0.0) for x, y, _z in outer]
    triangles = []
    for i in range(n):
        j = (i + 1) % n
        triangles += [(i, j, n + i), (j, n + j, n + i)]
    mesh = Mesh(vertices, triangles)
    assert all(mesh.neighbours[3 * t : 3 * t + 3].count(-1) == 1 for t in range(2 * n))
    msg = "^triangle 0 has 2 unmatched dual edges \\(need 2\\); matching is not perfect"
    with pytest.raises(PipelineError, match=msg):
        extract_cycles_by_dict(mesh, {})
    with pytest.raises(PipelineError, match=msg):
        extract_cycles(mesh, [-1] * (2 * n))


_PARTNER_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["neighbour", "other", "self", "missing", "negative"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("torus"), st.integers(3, 16), st.integers(3, 16)),
        st.tuples(st.just("icosphere"), st.integers(0, 2), st.just(0)),
    ),
    splits=st.integers(0, 12),
    any_matching=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    edits=_PARTNER_EDITS,
)
def test_extract_cycles_matches_the_dict_oracle(shape, splits, any_matching, seed, edits):
    # unedited lists give cycles; edited ones may leave a triangle with too
    # many unmatched edges, or a walk that never closes. The oracle takes
    # the list's matched entries as a dict; any negative entry is unmatched
    work, partner, _cs = _nodal_input(shape, splits, any_matching, seed)
    ids = work.alive_ids()
    for kind, x, y in edits:
        t = ids[x % len(ids)]
        if kind == "neighbour":
            partner[t] = work.neighbours[3 * t + y % 3]
        elif kind == "other":
            partner[t] = ids[y % len(ids)]
        elif kind == "self":
            partner[t] = t
        elif kind == "missing":
            partner[t] = -1
        else:
            partner[t] = -2 - y % 3
    try:
        want_cycles, want_cycle_of = extract_cycles_by_dict(work, as_partner_map(partner))
    except PipelineError as want:
        with pytest.raises(PipelineError) as got:
            extract_cycles(work, partner)
        assert str(got.value) == str(want)
        return
    got = extract_cycles(work, partner)
    assert got.cycles == want_cycles
    assert {t: c for t, c in enumerate(got.cycle_of) if c >= 0} == want_cycle_of
    assert all(c < 0 for t, c in enumerate(got.cycle_of) if not work.alive[t])


# -- nodal merging ----------------------------------------------------------------


def test_merge_nodal_octahedron_two_cycles_to_one(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    two_cycle = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
    partner = as_partner_list(two_cycle, 8)
    cs = extract_cycles(octa, partner)
    assert cs.count == 2
    cs, merges = merge_nodal(octa, partner, cs, _vertex_fans(octa))
    assert extract_cycles(octa, partner).count == cs.count == 1
    assert sum(m - 1 for _, m in merges) == 1
    validate_matching(octa.neighbours, octa.alive, partner)


def test_merge_nodal_rejects_odd_fans():
    # every icosahedron vertex has five incident triangles
    mesh = icosphere(0)
    partner = perfect_match_dual(mesh).partner
    cs = extract_cycles(mesh, partner)
    cs2, merges = merge_nodal(mesh, partner, cs, _vertex_fans(mesh))
    assert merges == []
    assert extract_cycles(mesh, partner).count == cs2.count == cs.count


def test_merge_nodal_preserves_matching_and_counts():
    for p, q in ((6, 5), (10, 10), (12, 7)):
        mesh = torus(p, q)
        partner = perfect_match_dual(mesh).partner
        cs = extract_cycles(mesh, partner)
        before = cs.count
        cs, merges = merge_nodal(mesh, partner, cs, _vertex_fans(mesh))
        validate_matching(mesh.neighbours, mesh.alive, partner)
        after = extract_cycles(mesh, partner).count
        assert after == cs.count == before - sum(m - 1 for _, m in merges)
        assert sum(cycle_lengths(cs)) == mesh.n_triangles


_NODAL_INPUTS = dict(
    shape=st.one_of(
        st.tuples(st.just("torus"), st.integers(3, 16), st.integers(3, 16)),
        st.tuples(st.just("icosphere"), st.integers(0, 2), st.just(0)),
    ),
    splits=st.integers(0, 12),
    any_matching=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _nodal_input(shape, splits, any_matching, seed):
    """(work mesh, partner, cycle set) before nodal merging, on a relabelled
    torus or icosphere with centroid splits; with `any_matching`, under some
    other perfect matching than the pipeline's."""
    kind, a, b = shape
    mesh = torus(a, b) if kind == "torus" else icosphere(a)
    rng = random.Random(seed)
    for t in rng.sample(range(mesh.n_triangles), min(splits, mesh.n_triangles)):
        insert_centroid(mesh, t)
    work, dual, partner, cs = _before_nodal(relabel(mesh, rng))
    if any_matching:
        # some other perfect matching, grown from a random one-sided start
        # (it may leave unmatched three-cycles; nodal merging need not care)
        start = [-1] * len(partner)
        for t in rng.sample(work.alive_ids(), work.n_triangles // 2):
            u = rng.choice(dual[t])
            if start[t] < 0 and start[u] < 0:
                start[t] = u
                start[u] = t
        blossom_maximum_matching(work.neighbours, work.alive, start)
        partner = start
        assert len(as_partner_map(partner)) == len(dual)
        cs = extract_cycles(work, partner)
    return work, partner, cs


@settings(max_examples=40, deadline=None)
@given(**_NODAL_INPUTS)
def test_merge_nodal_matches_full_sweep_oracle(shape, splits, any_matching, seed):
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    oracle_partner = as_partner_map(partner)
    oracle_merges = merge_nodal_full_sweep(work, oracle_partner, cs)
    _cs, merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    assert merges == oracle_merges
    assert as_partner_map(partner) == oracle_partner


@settings(max_examples=40, deadline=None)
@given(**_NODAL_INPUTS)
def test_merge_nodal_cycles_match_a_fresh_walk(shape, splits, any_matching, seed):
    # the merged cycles come from the union-find; a walk of the toggled
    # matching must find the same partition of the triangles, and each
    # merged cycle's root is its walked cycle of smallest id
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    joined, _merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    walked = extract_cycles(work, partner)
    assert joined.cycles is cs.cycles and joined.cycle_of is cs.cycle_of
    assert cs.root == list(range(len(cs.cycles)))  # merged in a copy
    root = joined.root.copy()
    merged: dict[int, list[int]] = {}
    for t, i in enumerate(joined.cycle_of):
        if i >= 0:
            merged.setdefault(find(root, i), []).append(t)
    assert sorted(merged.values()) == sorted(sorted(c) for c in walked.cycles)
    assert all(joined.cycles[r][0] == min(ts) for r, ts in merged.items())
    assert joined.count == len(merged) == walked.count


def test_merge_nodal_skips_masked_vertices_next_to_a_toggled_fan():
    # merge_nodal walks only the vertices that no live triangle's match
    # leaves out, taken before any toggle; here ring vertices of the fan
    # toggled at vertex 1 are such vertices, which the full sweep tries
    # again after the toggle and still rejects
    work, partner, cs = _nodal_input(("torus", 4, 4), 0, False, 2)
    left_out = {
        v for t in work.alive_ids()
        for v in set(work.triangles[t]) - set(work.triangles[partner[t]])
    }
    fans = vertex_triangles(work)
    ring = {w for t in fans[1] for w in work.triangles[t]} - {1}
    masked = {w for w in ring & left_out if len(fans[w]) >= 4 and len(fans[w]) % 2 == 0}
    assert {2, 12, 15} <= masked
    oracle_partner = as_partner_map(partner)
    oracle = merge_nodal_full_sweep(work, oracle_partner, cs)
    _cs, merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    assert merges == oracle and [v for v, _m in merges] == [1]
    assert as_partner_map(partner) == oracle_partner


def test_pinched_vertex_is_accepted_and_never_toggled():
    # torus(8,4) with the far-apart vertices 0 and 18 identified: every edge
    # still has two triangles, but the link of vertex 0 is two separate fans
    base = torus(8, 4)
    mesh = Mesh(base.vertices, [tuple(0 if v == 18 else v for v in t) for t in base.triangles])
    assert validate(mesh, "closed").ok
    fan = vertex_triangles(mesh)[0]
    assert len(fan) == 12
    assert _fan_order(mesh, 0, min(fan), len(fan)) is None
    res = stripify(mesh)
    assert verify_order(res.mesh, res.order, closed=True) == (True, None)
    work, dual, partner, cs = _before_nodal(mesh)
    _cs, merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    assert all(v != 0 for v, _m in merges)


# -- spanning tree splits -----------------------------------------------------------


def test_splits_no_op_for_single_cycle(tetra):
    partner = perfect_match_dual(tetra).partner
    cs = extract_cycles(tetra, partner)
    assert cs.count == 1
    assert spanning_tree_splits(tetra, partner, cs) == []
    assert tetra.n_triangles == 4


@settings(max_examples=30, deadline=None)
@given(**_NODAL_INPUTS)
def test_splits_pick_the_tree_of_a_loop_over_the_pairs(shape, splits, any_matching, seed):
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    cs, _merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    want = spanning_tree_by_loop(work, partner, cs)
    assert spanning_tree_splits(work, partner, cs) == want


@settings(max_examples=30, deadline=None)
@given(**_NODAL_INPUTS, shuffle=st.randoms(use_true_random=False))
def test_splits_do_not_depend_on_cycle_numbering(shape, splits, any_matching, seed, shuffle):
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    cs, _merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    # the same cycle set under new indices: cycle i becomes cycle new[i]
    new = list(range(len(cs.cycles)))
    shuffle.shuffle(new)
    old = sorted(range(len(new)), key=new.__getitem__)
    renumbered = CycleSet(
        cycles=[cs.cycles[i] for i in old],
        cycle_of=[new[i] if i >= 0 else -1 for i in cs.cycle_of],
        root=[new[cs.root[i]] for i in old],
    )
    got = spanning_tree_splits(work.copy(), list(partner), cs)
    mesh = work.copy()
    assert spanning_tree_splits(mesh, partner, renumbered) == got
    # each split joined two merged cycles, which the splits make one tree
    root = cs.root.copy()
    merged = [find(root, i) for i in range(len(cs.cycles))]
    graph = nx.MultiGraph()
    graph.add_nodes_from(merged)
    graph.add_edges_from((merged[cs.cycle_of[t]], merged[cs.cycle_of[u]]) for _e, t, u in got)
    assert nx.is_tree(graph)
    assert verify_order(mesh, assemble_cycle(mesh, partner), closed=True) == (True, None)


def test_splits_name_each_merged_cycle_left_unjoined(octa):
    # an octahedron whose matching leaves two cycles, beside a tetrahedron:
    # one split joins the octahedron's cycles, and nothing reaches the
    # tetrahedron's
    adj = {t: set(nbrs) for t, nbrs in build_dual(octa).items()}
    two_cycle = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
    tetra = tetrahedron()
    shift = len(octa.vertices)
    mesh = Mesh(
        octa.vertices + [(x + 5.0, y, z) for x, y, z in tetra.vertices],
        octa.triangles + [tuple(v + shift for v in t) for t in tetra.triangles],
    )
    partner = as_partner_list({**two_cycle, 8: 9, 9: 8, 10: 11, 11: 10}, 12)
    cs = extract_cycles(mesh, partner)
    assert cs.count == 3
    msg = "^cycle graph is disconnected: spanning tree has 1 edges for 3 cycles$"
    with pytest.raises(PipelineError, match=msg) as info:
        spanning_tree_splits(mesh, partner, cs)
    assert info.value.triangles == (0, 8)
    assert mesh.n_triangles == 12


def test_splits_merge_two_cycles(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    two_cycle = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
    partner = as_partner_list(two_cycle, 8)
    cs = extract_cycles(octa, partner)
    splits = spanning_tree_splits(octa, partner, cs)
    assert len(splits) == 1
    assert octa.n_triangles == 10
    order = assemble_cycle(octa, partner)
    assert verify_order(octa, order, closed=True) == (True, None)


def test_splits_reject_a_partner_list_of_another_length(octa):
    # the children's entries are appended, so they land on the children's
    # ids only when the list has one entry per triangle slot
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    two_cycle = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
    partner = as_partner_list(two_cycle, 8)
    cs = extract_cycles(octa, partner)
    with pytest.raises(ValueError, match="^partner list has 9 entries for 8 triangle slots$"):
        spanning_tree_splits(octa, partner + [-1], cs)
    assert octa.n_triangles == 8 and len(octa.triangles) == 8


# -- assembly and verification --------------------------------------------------------


def test_assemble_tetra_cycle(tetra):
    partner = perfect_match_dual(tetra).partner
    order = assemble_cycle(tetra, partner)
    assert sorted(order) == [0, 1, 2, 3]
    assert verify_order(tetra, order, closed=True) == (True, None)


def test_assemble_names_each_cycle_by_its_smallest_id(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    partner = as_partner_list(next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    ), 8)
    with pytest.raises(PipelineError, match="^unmatched edges form 2 cycles, not one$") as info:
        assemble_cycle(octa, partner)
    assert info.value.triangles == tuple(c[0] for c in extract_cycles(octa, partner).cycles)


def test_verify_rejects_duplicate(tetra):
    ok, why = verify_order(tetra, [0, 1, 0, 2], closed=True)
    assert not ok
    assert "more than once" in why


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**70])
def test_verify_order_names_an_id_beyond_int64(tetra, big):
    # such an id does not fit the checker's int64 arrays; it is still
    # reported as the oracle reports it, after the live ids before it
    order = [0, 1, big, 1]
    want = (False, f"triangle {big} is not a live triangle")
    assert verify_order(tetra, order, closed=True) == want
    assert verify_order_by_sets(tetra, order, closed=True) == want


def test_verify_rejects_non_adjacent():
    mesh = torus(5, 5)
    res = stripify(mesh)
    order = list(res.order)
    # moving one triangle far away must break adjacency somewhere
    order[0], order[len(order) // 2] = order[len(order) // 2], order[0]
    ok, why = verify_order(res.mesh, order, closed=True)
    assert not ok
    assert "share an edge" in why


@pytest.mark.parametrize("row,pair", [((0, 3, 0), (0, 1)), ((0, 1, 0), (1, 2))])
def test_verify_order_counts_distinct_shared_vertices(tetra, row, pair):
    # triangle 1 made degenerate: (0, 3, 0) shares one distinct vertex with
    # triangle 0 (0, 1, 2) through two equal entries, and (0, 1, 0) shares
    # the edge (0, 1) with it through three; a count of equal entries
    # would accept the first pair and reject the second
    tetra.triangles[1] = row
    want = (False, f"consecutive triangles {pair[0]} and {pair[1]} do not share an edge")
    assert verify_order(tetra, [0, 1, 2, 3], closed=True) == want
    assert verify_order_by_sets(tetra, [0, 1, 2, 3], closed=True) == want


def test_verify_rejects_wrong_count(tetra):
    ok, why = verify_order(tetra, [0, 1, 2], closed=True)
    assert not ok


# a square cut into two triangles, a fin of three triangles on the edge
# (0, 1), and the fin with a fourth triangle beyond its third: a triangle
# entered and left across one edge is no cell of a strip, though each pair
# shares an edge
SQUARE = ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)])
FIN = ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)], [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
FIN_TAIL = (FIN[0] + [(1, 1, 1)], FIN[1] + [(1, 4, 5)])


@pytest.mark.parametrize("shape,order,closed,want", [
    (SQUARE, [0, 1], True, 0),
    (SQUARE, [0, 1], False, None),  # an open strip of two has no inner triangle
    (FIN, [0, 1, 2], True, 0),
    (FIN, [0, 1, 2], False, 1),
    (FIN, [1, 2, 0], True, 1),
    (FIN_TAIL, [3, 2, 1, 0], False, 1),
], ids=[
    "square-cycle", "square-strip", "fin-cycle", "fin-strip", "fin-cycle-rotated", "fin-tail-strip",
])
def test_verify_order_rejects_a_triangle_entered_and_left_by_one_edge(shape, order, closed, want):
    mesh = Mesh(*shape)
    expected = (True, None) if want is None else (
        False, f"triangle {want} enters and exits by the same edge"
    )
    assert verify_order(mesh, order, closed) == expected
    assert verify_order_by_sets(mesh, order, closed) == expected


def _real_orders():
    """(mesh, order, closed) from both pipelines: the closed one on its
    working mesh, whose split parents are dead slots, and an open strip."""
    work, _dual, partner, cs = _before_nodal(torus(10, 10))
    cs, _merges = merge_nodal(work, partner, cs, _vertex_fans(work))
    assert spanning_tree_splits(work, partner, cs)
    res = strip_with_boundary(gen_mk(3))
    return [(work, assemble_cycle(work, partner), True), (res.mesh, res.order, False)]


_REAL_ORDERS = _real_orders()
_corruption = st.tuples(
    st.sampled_from(["swap", "repeat", "dead", "negative", "range", "truncate", "degenerate"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@settings(max_examples=300, deadline=None)
@given(
    case=st.integers(0, len(_REAL_ORDERS) - 1),
    closed=st.booleans(),
    edits=st.lists(_corruption, max_size=3),
)
def test_verify_order_matches_the_set_based_oracle(case, closed, edits):
    mesh, order, _closed = _REAL_ORDERS[case]
    order = list(order)
    dead = [t for t, a in enumerate(mesh.alive) if not a]
    for kind, x, y in edits:
        i, j = x % len(order), y % len(order)
        if kind == "swap":
            order[i], order[j] = order[j], order[i]
        elif kind == "repeat":
            order[j] = order[i]
        elif kind == "dead" and dead:
            order[i] = dead[y % len(dead)]
        elif kind == "negative":
            order[i] = -1 - y % 3
        elif kind == "range":
            order[i] = len(mesh.triangles) + y % 3
        elif kind == "truncate":
            order = order[:i]
        elif kind == "degenerate" and 0 <= order[i] < len(mesh.triangles):
            mesh = mesh.copy()
            a, b, _c = mesh.triangles[order[i]]
            mesh.triangles[order[i]] = (a, b, a) if y % 2 else (a, a, b)
        if not order:
            break
    got = verify_order(mesh, order, closed)
    assert got == verify_order_by_sets(mesh, order, closed)
    if not edits and closed == _closed:
        assert got == (True, None)


# -- full pipeline -----------------------------------------------------------------


def test_stripify_tetrahedron(tetra):
    res = stripify(tetra)
    assert res.stats["input_triangles"] == 4
    assert res.stats["output_triangles"] == 4
    assert res.stats["splits"] == 0
    assert verify_order(res.mesh, res.order, closed=True) == (True, None)


def test_stripify_torus400_under_3_percent(torus400):
    res = stripify(torus400)
    assert res.stats["output_triangles"] <= 412
    assert verify_order(res.mesh, res.order, closed=True) == (True, None)


def test_stripify_rejects_open_mesh():
    from singlestrip.generators import fan

    with pytest.raises(ValidationError):
        stripify(fan(5))


def test_stripify_bookkeeping_consistency():
    for mesh in (octahedron(), torus(6, 4), icosphere(1)):
        res = stripify(mesh)
        s = res.stats
        assert s["output_triangles"] == s["input_triangles"] + 2 * s["splits"]
        assert s["splits"] == s["cycles_after_nodal"] - 1
        assert s["output_triangles"] < 1.5 * s["input_triangles"]


def test_stripify_preserves_input(torus400):
    stripify(torus400)
    assert torus400.n_triangles == 400
    assert validate(torus400, "closed").ok


def _check_matching_stats(res, mesh, n_dual):
    """Check the stats' matching counters against the matching stage, rerun
    on an eliminated copy of `mesh` whose dual has `n_dual` nodes; returns
    the rerun's match state."""
    eliminated = mesh.copy()
    eliminate_three_cycles(eliminated, _vertex_fans(eliminated))
    state = perfect_match_dual(eliminated)
    assert eliminated.n_triangles == n_dual
    # symmetric, and pairs only live dual neighbours
    validate_matching(eliminated.neighbours, eliminated.alive, state.partner)
    want = {
        "greedy_matched": state.greedy_matched,
        "greedy_coverage": round(state.greedy_matched / n_dual, 4),
        "greedy_picks": state.greedy_picks,
        "augmentations": state.augmentations,
        "augment_nodes": state.augment_nodes,
    }
    assert {k: res.stats[k] for k in want} == want
    assert state.greedy_matched + 2 * state.augmentations == n_dual  # perfect
    return state


def test_stripify_stats_report_the_matching_stage(torus400):
    # torus(20,10) takes one nodal merge and one split; neither may leak into
    # the reported matching counters
    res = stripify(torus400)
    assert len(as_partner_map(_check_matching_stats(res, torus400, 400).partner)) == 400


def test_stripify_reports_greedy_picks(torus400):
    res = stripify(torus400)
    picks = res.stats["greedy_picks"]
    assert isinstance(picks, int)
    assert picks == _check_matching_stats(res, torus400, 400).greedy_picks
    assert picks <= res.stats["greedy_matched"] // 2


def test_stripify_stats_report_the_matching_after_elimination():
    mesh = torus(20, 10)
    insert_centroid(mesh, 0)
    insert_centroid(mesh, 200)
    assert mesh.n_triangles == 404
    res = stripify(mesh)
    copy = mesh.copy()
    assert len(eliminate_three_cycles(copy, _vertex_fans(copy))) == 2
    # coverage is over the eliminated dual's 400 nodes, not the input's 404
    _check_matching_stats(res, mesh, 400)


def test_stripify_walks_the_cycles_twice(monkeypatch, torus400):
    # the cycles stage and `assemble_cycle` walk; nodal merging takes its
    # cycles from its union-find
    calls = []

    def counted(mesh, partner):
        calls.append(mesh.n_triangles)
        return extract_cycles(mesh, partner)

    monkeypatch.setattr(striploop, "extract_cycles", counted)
    res = stripify(torus400)
    assert res.stats["nodal_merges"] >= 1 and res.stats["splits"] >= 1
    assert len(calls) == 2


def test_stripify_takes_the_vertex_fans_once(monkeypatch):
    # elimination edits a copy of them, and restoration brings back the live
    # set they were taken on, so nodal merging reads them as they are
    taken = []

    def counted(mesh):
        fans = _vertex_fans(mesh)
        taken.append((fans, [f.copy() for f in fans]))
        return fans

    monkeypatch.setattr(striploop, "_vertex_fans", counted)
    res = stripify(_golden_closed_mesh("torus20x10"))
    assert res.stats["nodal_merges"] >= 1
    assert len(taken) == 1
    fans, before = taken[0]
    assert list(fans) == before


def test_stripify_theorem_bound_randomized():
    rng = random.Random(97)
    for _ in range(12):
        p, q = rng.randint(3, 14), rng.randint(3, 14)
        mesh = torus(p, q)
        res = stripify(mesh)
        assert res.stats["output_triangles"] < 1.5 * 2 * p * q
        assert verify_order(res.mesh, res.order, closed=True) == (True, None)


def test_stripify_with_seeded_degree3_vertices():
    mesh = torus(8, 6)
    rng = random.Random(41)
    for t in rng.sample(range(mesh.n_triangles), 10):
        insert_centroid(mesh, t)
    n = mesh.n_triangles
    res = stripify(mesh)
    assert res.stats["input_triangles"] == n
    assert verify_order(res.mesh, res.order, closed=True) == (True, None)
    # every cycle the pipeline saw had length >= 4 (asserted internally);
    # double-check: the final mesh's cycle has no length-3 signature anyway
    assert res.stats["output_triangles"] < 1.5 * n


def test_stripify_names_an_unmatched_three_cycle(monkeypatch):
    # with elimination skipped, a matching that pairs each fan triangle of
    # a centroid with its outer neighbour leaves the fan an unmatched cycle
    mesh = icosphere(0)
    _v, fan = insert_centroid(mesh, 0)
    partner = {}
    for t in fan:
        x = mesh.neighbours[3 * t]  # across the fan triangle's outer edge
        partner[t], partner[x] = x, t
    rest = nx.Graph()
    rest.add_edges_from(
        (t, u) for t, row in dual_rows(mesh).items() for u in row
        if t not in partner and u not in partner
    )
    for t, u in nx.max_weight_matching(rest, maxcardinality=True):
        partner[t], partner[u] = u, t
    assert len(partner) == mesh.n_triangles
    partner = as_partner_list(partner, len(mesh.triangles))
    monkeypatch.setattr(striploop, "eliminate_three_cycles", lambda mesh, fans: [])
    monkeypatch.setattr(
        striploop, "perfect_match_dual", lambda mesh: SimpleNamespace(partner=list(partner))
    )
    with pytest.raises(PipelineError, match="^an unmatched three-cycle survived elimination$") as info:
        stripify(mesh)
    assert info.value.stage == "cycles"
    assert sorted(info.value.triangles) == list(fan)


def test_stripify_deterministic(torus400):
    a = stripify(torus400)
    b = stripify(torus(20, 10))
    assert a.order == b.order
    assert a.stats["output_triangles"] == b.stats["output_triangles"]
    assert a.mesh.vertices == b.mesh.vertices  # the same midpoints, in split order


@pytest.mark.parametrize("pipeline", ["closed", "open"])
def test_stages_account_for_the_wall_time(pipeline):
    if pipeline == "closed":
        mesh = torus(30, 20)
        for t in random.Random(8).sample(range(mesh.n_triangles), 30):
            insert_centroid(mesh, t)
        run = stripify
    else:
        mesh = gen_mk(8)
        run = strip_with_boundary
    results = []  # kept, so that no earlier result is freed inside the timing
    for _ in range(3):
        t0 = time.perf_counter()
        results.append(run(mesh))
        wall_ms = (time.perf_counter() - t0) * 1000.0
        assert sum(results[-1].stats["elapsed_ms"].values()) >= 0.95 * wall_ms


@pytest.mark.parametrize("error", [PipelineError, MatchingError, CurveError])
def test_stage_timer_tags_the_innermost_stage(error):
    timer = StageTimer()
    with pytest.raises(error) as info:
        with timer("outer"):
            with timer("inner"):
                raise error("x")
    assert info.value.stage == "inner"
    assert timer.ms == {}


def test_stage_timer_leaves_errors_without_a_stage_untagged():
    timer = StageTimer()
    with pytest.raises(KeyError) as info:
        with timer("match"):
            raise KeyError("x")
    assert not hasattr(info.value, "stage")


def test_split_children_coplanar_with_parents():
    mesh = torus(10, 10)
    res = stripify(mesh)
    assert res.stats["splits"] > 0
    # each split adds a midpoint on two children in each of two parents
    assert assert_coplanar(mesh, res.mesh) == 4 * res.stats["splits"]


@pytest.mark.parametrize("pipeline", ["closed", "open"])
def test_coplanarity_oracle_rejects_a_moved_midpoint_and_a_foreign_vertex(pipeline):
    mesh = torus(10, 10) if pipeline == "closed" else gen_mk(3)
    out = (stripify if pipeline == "closed" else strip_with_boundary)(mesh).mesh
    edge_of, _under = coplanar_parents(mesh, out)
    v = min(edge_of)
    x, y, z = out.vertices[v]
    moved = out.copy()
    moved.vertices[v] = (float(np.nextafter(x, np.inf)), y, z)
    with pytest.raises(AssertionError, match=f"^vertex {v} is the midpoint of 0 input edges$"):
        coplanar_parents(mesh, moved)
    # a child of the split at v, its apex re-pointed at a vertex of no input
    # triangle on the split edge
    t = next(t for t in out.alive_ids() if v in out.triangles[t])
    a, b = edge_of[v]
    on_edge = {u for s in edge_triangles(mesh, (a, b)) for u in mesh.triangles[s]}
    foreign = min(set(range(mesh.n_vertices)) - on_edge)
    repointed = out.copy()
    repointed.triangles[t] = tuple(u if u in (v, a, b) else foreign for u in out.triangles[t])
    with pytest.raises(AssertionError, match=f"^output triangle {t} .* lies in no input triangle$"):
        coplanar_parents(mesh, repointed)


def test_coplanarity_oracle_settles_a_midpoint_shared_by_two_edges():
    # two triangles folded over their shared edge (1, 2), and a third on
    # (0, 1): edges (0, 1) and (2, 3) cross at (1, 1, 0)
    corners = [(0, 0), (2, 2), (2, 0), (0, 2), (3, -1)]
    mesh = Mesh([(x, y, 0.0) for x, y in corners], [(0, 1, 2), (2, 1, 3), (1, 0, 4)])
    out = mesh.copy()
    split_pair(out, (0, 1), (0, 2))
    edge_of, under = coplanar_parents(mesh, out)
    assert edge_of == {5: (0, 1)}
    assert under == [1, 0, 0, 2, 2]  # live ids 1, 3, 4, 5, 6
    # with child (5, 1, 2) re-pointed at 3, each edge fits one of the
    # midpoint's triangles but not both
    refolded = out.copy()
    t = refolded.triangles.index((5, 1, 2))
    refolded.triangles[t] = (5, 1, 3)
    with pytest.raises(AssertionError, match="^output triangle .* lies in no input triangle$"):
        coplanar_parents(mesh, refolded)


# sha256 of the `stripify` outputs (strip OBJ, strip order, and the stats
# below as sorted JSON); a digest changes only with an intended output
# change, which CHANGES.md records
GOLDEN_STATS_KEYS = (
    "input_triangles", "output_triangles", "percent_increase", "cycles_initial",
    "cycles_after_nodal", "splits", "nodal_merges", "greedy_matched",
    "greedy_coverage", "augmentations", "verified",
)
GOLDEN_CLOSED = {
    "torus20x10": (
        "d8480e3dae815a550fc26d0f5c17c7951df0f00c33ada898759b28d4a9a96702",
        "39333273a70cac96ad08b224f228c792fa50f98e7ac7a2d917fdc73740cfec38",
        "172335bfc31e59a44d037afa585df9b3b60b3bc23cdcc58090b1b0dbeae96584",
    ),
    "icosphere3": (
        "fbf82464501c6d46f49cef614790df65553723c79df9d2c35d0cef55496eb9eb",
        "9713a6017c70c7270397b39a5afe99006d8a9c5dc7e44d7e3ac3cee477453a7d",
        "3ddf321f155302e253320d1312a839dfdf5e62c20de61f5de17ee348997dd423",
    ),
    "octahedron": (
        "469d41b8177bdecfab5a8ab001375c1bd18527f6bbec3bb1f1e56065fdcb5d2d",
        "c6c9c39d7092e711c6cef1daed975e49e340f0e2243a92956b5a497a452a42d1",
        "c83cd54a6ae76eb5d89dc6e4bd4c2bfc5084f83f5c663720fb8c0fa7268681b0",
    ),
    "tetrahedron": (
        "bde941d5784f08e1cf84e5463078cfbf6e96f52ec5d85b0f8c2b9b23c12983da",
        "4c6ac3c6708618caf0143af19f98282ca4a2a2b11cb162e2eb5b0e769fe87fd8",
        "99a74ef2a0b504b7e16e81117ba8fcc276bf521b5efb40b7b8fc50c94c1a68e9",
    ),
    # 3,816 triangles, and the blossom augments twice
    "torus60x30": (
        "31a96be67e6f507fd815e887d14026f14fa2e17075accb7acfa37f21322220c7",
        "b90a02d3c03af4e4cdcd9ab996913b83fab01f2cb87f628a34bca51b56e9a49a",
        "6881e1da8eb79e4bf2d942d405b31d3d30337bd840401518b635c567ff6d3959",
    ),
}
# (greedy_picks, augment_nodes) of the same runs: the blossom's search order
# shows in augment_nodes, which the digests above leave out
GOLDEN_MATCH = {
    "icosphere3": (98, 1174),
    "octahedron": (1, 0),
    "tetrahedron": (1, 0),
    "torus20x10": (34, 0),
    "torus60x30": (279, 4052),
}


def _golden_closed_mesh(name):
    if name in ("torus20x10", "torus60x30"):
        # relabelled, with centroid splits in 3% of the triangles
        p, q, k = (20, 10, 12) if name == "torus20x10" else (60, 30, 108)
        mesh = torus(p, q)
        rng = random.Random(3)
        for t in rng.sample(range(mesh.n_triangles), k):
            insert_centroid(mesh, t)
        return relabel(mesh, random.Random(3))
    if name == "icosphere3":
        return relabel(icosphere(3), random.Random(3))
    if name == "tetrahedron":
        return tetrahedron()
    return octahedron()


@pytest.mark.parametrize("name", sorted(GOLDEN_CLOSED))
def test_stripify_output_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.off"
    save_mesh(_golden_closed_mesh(name), path)
    out = tmp_path / "out"
    assert main(["stripify", str(path), "--out", str(out)]) == 0
    stats = json.loads((out / f"{name}.stats.json").read_text())
    kept = {k: stats[k] for k in GOLDEN_STATS_KEYS}
    digests = (
        hashlib.sha256((out / f"{name}.strip.obj").read_bytes()).hexdigest(),
        hashlib.sha256((out / f"{name}.strip.txt").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest(),
    )
    assert digests == GOLDEN_CLOSED[name]
    assert (stats["greedy_picks"], stats["augment_nodes"]) == GOLDEN_MATCH[name]
