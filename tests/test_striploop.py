"""Three-cycle elimination, cycle extraction, nodal merging, tree splits,
and the assembled Hamiltonian cycle."""

import hashlib
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_perfect_matchings,
    cycle_lengths,
    eliminate_three_cycles_by_sets,
    extract_cycles_by_dict,
    insert_centroid,
    merge_nodal_full_sweep,
    other_triangle,
    plane_distance,
    relabel,
    triangle_edges,
    unmatched_cycles,
    verify_order_by_sets,
    vertex_triangles,
)
from singlestrip import striploop
from singlestrip.boundary import gen_mk, strip_with_boundary
from singlestrip.cli import main
from singlestrip.fileio import save_mesh
from singlestrip.generators import icosphere, octahedron, tetrahedron, torus
from singlestrip.matching import (
    MatchingError,
    blossom_maximum_matching,
    perfect_match_dual,
    validate_matching,
)
from singlestrip.mesh import Mesh, ValidationError, build_dual, validate
from singlestrip.sfc import CurveError
from singlestrip.striploop import (
    MIN_TRIANGLES,
    PipelineError,
    StageTimer,
    _fan_order,
    assemble_cycle,
    eliminate_three_cycles,
    extract_cycles,
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
    stack = eliminate_three_cycles(work)
    partner = dict(perfect_match_dual(build_dual(work)).partner)
    restore_three_cycles(work, partner, stack)
    dual = build_dual(work)
    return work, dual, partner, extract_cycles(work, partner)


# -- elimination ----------------------------------------------------------------


def test_eliminate_single_config():
    mesh = icosphere(0)
    insert_centroid(mesh, 0)
    n = mesh.n_triangles
    stack = eliminate_three_cycles(mesh)
    assert len(stack) == 1
    assert mesh.n_triangles == n - 2
    assert validate(mesh, "closed").ok


def test_eliminate_icosahedron_unchanged():
    mesh = icosphere(0)  # every vertex has 5 incident triangles
    stack = eliminate_three_cycles(mesh)
    assert stack == []
    assert mesh.n_triangles == 20


def test_eliminate_nested_double_centroid():
    mesh = icosphere(0)
    before = _live_triangle_sets(mesh)
    _g1, children = insert_centroid(mesh, 0)
    insert_centroid(mesh, children[0])
    stack = eliminate_three_cycles(mesh)
    assert len(stack) == 2
    assert _live_triangle_sets(mesh) == before
    assert validate(mesh, "closed").ok


def test_eliminate_stops_at_tetrahedron_scale():
    # a twice-subdivided triangle of a tetrahedron cascades down to n=4
    mesh = tetrahedron()
    _, children = insert_centroid(mesh, 0)
    insert_centroid(mesh, children[1])
    assert mesh.n_triangles == 8
    eliminate_three_cycles(mesh)
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
    stack = eliminate_three_cycles(mesh)
    assert stack == eliminate_three_cycles_by_sets(oracle)
    assert mesh.neighbours == oracle.neighbours
    assert mesh.alive == oracle.alive
    assert mesh.triangles == oracle.triangles
    assert mesh.n_triangles >= MIN_TRIANGLES


# -- restoration ----------------------------------------------------------------


def test_restore_empty_stack_is_identity(octa):
    partner = perfect_match_dual(build_dual(octa)).partner
    before = dict(partner)
    restore_three_cycles(octa, partner, [])
    assert partner == before


def test_restore_matches_owner_and_pairs_rest():
    mesh = torus(5, 4)
    for t in (0, 7, 14):
        insert_centroid(mesh, t)
    stack = eliminate_three_cycles(mesh)
    assert len(stack) == 3
    dual = build_dual(mesh)
    partner = perfect_match_dual(dual).partner
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
    validate_matching(build_dual(mesh), partner)
    assert len(partner) == mesh.n_triangles
    for owner, x, cfg in owners.values():
        if x not in snapshot:  # x itself may be a replacement restored later
            assert partner[owner] == x
        rest = [t for t in cfg.parents if t != owner]
        assert partner[rest[0]] == rest[1]


def test_restore_errors_name_the_replacement():
    mesh = torus(5, 4)
    insert_centroid(mesh, 0)
    stack = eliminate_three_cycles(mesh)
    partner = perfect_match_dual(build_dual(mesh)).partner
    r = stack[0].replacement
    far = next(u for u in mesh.alive_ids() if u != r and u not in mesh.neighbours[3 * r : 3 * r + 3])
    with pytest.raises(PipelineError, match=f"^replacement {r} is matched to non-neighbor {far}$") as info:
        restore_three_cycles(mesh.copy(), {**partner, r: far}, stack)
    assert info.value.triangles == (r, far)
    del partner[r]
    with pytest.raises(PipelineError, match=f"^replacement triangle {r} is unmatched;") as info:
        restore_three_cycles(mesh.copy(), partner, stack)
    assert info.value.triangles == (r,)


def test_restore_leaves_no_unmatched_three_cycle():
    mesh = icosphere(1)
    rng = random.Random(3)
    for t in rng.sample(range(mesh.n_triangles), 12):
        insert_centroid(mesh, t)
    stack = eliminate_three_cycles(mesh)
    assert stack
    dual = build_dual(mesh)
    partner = perfect_match_dual(dual).partner
    restore_three_cycles(mesh, partner, stack)
    dual = build_dual(mesh)
    cycles = extract_cycles(mesh, partner)
    assert all(len(c) >= 4 for c in cycles.cycles)
    # after elimination there can be at most n/4 cycles
    assert cycles.count <= len(dual) / 4


# -- cycle extraction -------------------------------------------------------------


def test_extract_tetra_single_4cycle(tetra):
    dual = build_dual(tetra)
    partner = perfect_match_dual(dual).partner
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
        cs = extract_cycles(octa, partner)
        seen.add(tuple(sorted(cycle_lengths(cs))))
        oracle = sorted(len(c) for c in unmatched_cycles(adj, partner))
        assert sorted(cycle_lengths(cs)) == oracle
    assert seen == {(4, 4), (8,)}


def test_extract_partitions_all_triangles(torus400):
    dual = build_dual(torus400)
    partner = perfect_match_dual(dual).partner
    cs = extract_cycles(torus400, partner)
    assert sum(cycle_lengths(cs)) == 400
    assert sorted(t for c in cs.cycles for t in c) == sorted(dual)


def test_extract_rejects_broken_matching(tetra):
    dual = build_dual(tetra)
    with pytest.raises(PipelineError, match="unmatched dual edges"):
        extract_cycles(tetra, {})


def test_extract_names_a_corrupted_partner_entry(torus400):
    partner = perfect_match_dual(build_dual(torus400)).partner
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
    # unmatched ones, and an unmatched one, raise as the oracle does
    mesh = gen_mk(k)
    for partner in ({}, blossom_maximum_matching(build_dual(mesh))):
        with pytest.raises(PipelineError) as want:
            extract_cycles_by_dict(mesh, partner)
        with pytest.raises(PipelineError) as got:
            extract_cycles(mesh, partner)
        assert str(got.value) == str(want.value)


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
    # unedited maps give cycles; edited ones may leave a triangle with too
    # many unmatched edges, or a walk that never closes
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
            partner.pop(t, None)
        else:
            partner[t] = -1
    try:
        want_cycles, want_cycle_of = extract_cycles_by_dict(work, partner)
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
    partner = dict(two_cycle)
    cs = extract_cycles(octa, partner)
    assert cs.count == 2
    cs, merges = merge_nodal(octa, partner, cs)
    assert extract_cycles(octa, partner).count == cs.count == 1
    assert sum(m - 1 for _, m in merges) == 1
    validate_matching(dual, partner)


def test_merge_nodal_rejects_odd_fans():
    # every icosahedron vertex has five incident triangles
    mesh = icosphere(0)
    dual = build_dual(mesh)
    partner = perfect_match_dual(dual).partner
    cs = extract_cycles(mesh, partner)
    cs2, merges = merge_nodal(mesh, partner, cs)
    assert merges == []
    assert extract_cycles(mesh, partner).count == cs2.count == cs.count


def test_merge_nodal_preserves_matching_and_counts():
    for p, q in ((6, 5), (10, 10), (12, 7)):
        mesh = torus(p, q)
        dual = build_dual(mesh)
        partner = perfect_match_dual(dual).partner
        cs = extract_cycles(mesh, partner)
        before = cs.count
        cs, merges = merge_nodal(mesh, partner, cs)
        validate_matching(dual, partner)
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
        start = {}
        for t in rng.sample(sorted(partner), len(partner) // 2):
            u = rng.choice(dual[t])
            if t not in start and u not in start:
                start[t] = u
                start[u] = t
        partner = blossom_maximum_matching(dual, start)
        assert len(partner) == len(dual)
        cs = extract_cycles(work, partner)
    return work, partner, cs


@settings(max_examples=40, deadline=None)
@given(**_NODAL_INPUTS)
def test_merge_nodal_matches_full_sweep_oracle(shape, splits, any_matching, seed):
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    oracle_partner = dict(partner)
    oracle_merges = merge_nodal_full_sweep(work, oracle_partner, cs)
    _cs, merges = merge_nodal(work, partner, cs)
    assert merges == oracle_merges
    assert partner == oracle_partner


@settings(max_examples=40, deadline=None)
@given(**_NODAL_INPUTS)
def test_merge_nodal_cycles_match_a_fresh_walk(shape, splits, any_matching, seed):
    # the merged cycles come from the union-find; a walk of the toggled
    # matching must find the same triangle sets, listed in the same order,
    # each list starting at its smallest id
    work, partner, cs = _nodal_input(shape, splits, any_matching, seed)
    joined, _merges = merge_nodal(work, partner, cs)
    walked = extract_cycles(work, partner)
    assert [sorted(c) for c in joined.cycles] == [sorted(c) for c in walked.cycles]
    assert [c[0] for c in joined.cycles] == [c[0] for c in walked.cycles]
    assert joined.cycle_of == walked.cycle_of


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
    _cs, merges = merge_nodal(work, partner, cs)
    assert all(v != 0 for v, _m in merges)


# -- spanning tree splits -----------------------------------------------------------


def test_splits_no_op_for_single_cycle(tetra):
    dual = build_dual(tetra)
    partner = perfect_match_dual(dual).partner
    cs = extract_cycles(tetra, partner)
    assert cs.count == 1
    records = spanning_tree_splits(tetra, partner, cs)
    assert records == []
    assert tetra.n_triangles == 4


def test_splits_merge_two_cycles(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    two_cycle = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
    partner = dict(two_cycle)
    cs = extract_cycles(octa, partner)
    records = spanning_tree_splits(octa, partner, cs)
    assert len(records) == 1
    assert octa.n_triangles == 10
    order = assemble_cycle(octa, partner)
    assert verify_order(octa, order, closed=True) == (True, None)


# -- assembly and verification --------------------------------------------------------


def test_assemble_tetra_cycle(tetra):
    dual = build_dual(tetra)
    partner = perfect_match_dual(dual).partner
    order = assemble_cycle(tetra, partner)
    assert sorted(order) == [0, 1, 2, 3]
    assert verify_order(tetra, order, closed=True) == (True, None)


def test_assemble_names_each_cycle_by_its_smallest_id(octa):
    dual = build_dual(octa)
    adj = {t: set(nbrs) for t, nbrs in dual.items()}
    partner = next(
        p for p in all_perfect_matchings(adj)
        if sorted(len(c) for c in unmatched_cycles(adj, p)) == [4, 4]
    )
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


def _real_orders():
    """(mesh, order, closed) from both pipelines: the closed one on its
    working mesh, whose split parents are dead slots, and an open strip."""
    work, _dual, partner, cs = _before_nodal(torus(10, 10))
    cs, _merges = merge_nodal(work, partner, cs)
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
    eliminate_three_cycles(eliminated)
    dual = build_dual(eliminated)
    state = perfect_match_dual(dual)
    assert len(dual) == n_dual
    validate_matching(dual, state.partner)  # symmetric, and pairs only dual neighbours
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
    assert _check_matching_stats(res, torus400, 400).size == 200


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
    assert len(eliminate_three_cycles(mesh.copy())) == 2
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


def test_stripify_deterministic(torus400):
    a = stripify(torus400)
    b = stripify(torus(20, 10))
    assert a.order == b.order
    assert a.stats["output_triangles"] == b.stats["output_triangles"]
    assert [r.edge for r in a.splits] == [r.edge for r in b.splits]


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
    assert res.splits
    for rec in res.splits:
        mid = res.mesh.vertices[rec.midpoint]
        for parent in rec.parents:
            assert mesh.alive[parent] and set(rec.edge) <= set(mesh.triangles[parent])
            assert plane_distance(mesh, parent, mid) <= 1e-12


# sha256 of the `stripify` outputs (strip OBJ, strip order, and the stats
# below as sorted JSON), pinned while `merge_nodal` still swept every vertex
# until a whole pass accepted nothing
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
        "682e6d027514495e0dbba4ad9d02ee1cd211615818095723088f37537e56a8b6",
        "fc275e8e476d8adbad898566c1fca62d57f7441724b0897c01b8b96249a56c5e",
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
}


def _golden_closed_mesh(name):
    if name == "torus20x10":
        mesh = torus(20, 10)
        rng = random.Random(3)
        for t in rng.sample(range(mesh.n_triangles), 12):
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
