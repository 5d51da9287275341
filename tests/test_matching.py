"""Greedy reductions, contraction replay, blossom augmentation.

The blossom and its seed check read graphs as the library holds them: flat
3-slot neighbour tables padded with -1, and partner lists. Abstract graphs
go in through `as_table`, and so have degree at most 3, as every triangle
dual has; the oracles keep their node -> neighbours mappings and partner
dicts, of any degree."""

import itertools
import random
import re
import tracemalloc
from dataclasses import fields

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    as_partner_list,
    as_partner_map,
    as_table,
    blossom_by_base_map,
    check_matching,
    complete_graph,
    cube_graph,
    dual_by_shared_vertices,
    dual_rows,
    greedy_consume_by_heap,
    greedy_reduce,
    insert_centroid,
    max_matching_size,
    path_graph,
    petersen_graph,
    relabel,
    replay_reductions_by_frozensets,
    unmatched_cycles,
    validate_matching_by_loop,
)
from singlestrip.generators import gen_mk, icosphere, torus
from singlestrip.matching import (
    MatchingError,
    MatchState,
    blossom_maximum_matching,
    perfect_match_dual,
    replay_reductions,
    validate_matching,
    _greedy_consume,
)
from singlestrip.mesh import build_dual
from singlestrip.striploop import _vertex_fans, eliminate_three_cycles


def test_greedy_reduce_path4_all_forced():
    reduced, partner, log = greedy_reduce(path_graph(4))
    assert reduced == {}
    assert partner == {0: 1, 1: 0, 2: 3, 3: 2}


def _n_matched(partner):
    return len(partner) - partner.count(-1)


def _grown(graph, start=None):
    """`blossom_maximum_matching` on the table of `graph`, from the partner
    dict `start` or from nothing: (the grown matching as a partner dict,
    the number of nodes its searches labelled)."""
    nb, alive = as_table(graph)
    seed = as_partner_list(start or {}, len(alive))
    labelled = blossom_maximum_matching(nb, alive, seed)
    return as_partner_map(seed), labelled


def test_greedy_reduce_m2_dual_tree_is_maximum():
    mesh = gen_mk(2)
    dual = dual_rows(mesh)
    reduced, partner, log = greedy_reduce(dual)
    assert reduced == {}
    full = as_partner_list(partner, len(mesh.triangles))
    replay_reductions(full, log)
    validate_matching(mesh.neighbours, mesh.alive, full)
    assert _n_matched(full) // 2 == max_matching_size(dual_by_shared_vertices(mesh))


def test_greedy_reduce_cube_graph_no_move():
    reduced, partner, log = greedy_reduce(cube_graph())
    assert {v: set(ns) for v, ns in reduced.items()} == cube_graph()
    assert partner == {}
    assert log == []


def test_greedy_reduce_postcondition_random():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 12)
        adj = {i: set() for i in range(n)}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                adj[i].add(j)
                adj[j].add(i)
        reduced, partner, log = greedy_reduce(adj)
        assert all(len(ns) >= 3 for ns in reduced.values())
        # replay must lift any maximum matching of the reduced graph to a
        # valid matching of the input of the same total size; the reduced
        # graph's degree may exceed 3, so the oracle matches it
        sub = blossom_by_base_map(reduced) if reduced else {}
        lifted = as_partner_list({**partner, **sub}, n)
        replay_reductions(lifted, log)
        lifted = as_partner_map(lifted)
        check_matching(adj, lifted)
        assert len(lifted) // 2 == max_matching_size(adj)


@pytest.mark.parametrize(
    "graph,size",
    [
        (complete_graph(4), 2),
        (petersen_graph(), 5),
        (cube_graph(), 4),
    ],
)
def test_blossom_from_empty_matches_bruteforce(graph, size):
    assert max_matching_size(graph) == size  # freeze the oracle value
    nb, alive = as_table(graph)
    match = [-1] * len(alive)
    blossom_maximum_matching(nb, alive, match)
    validate_matching(nb, alive, match)
    assert _n_matched(match) // 2 == size


def test_blossom_oracle_equivalence_random_graphs():
    rng = random.Random(23)
    for _ in range(250):
        n = rng.randint(2, 12)
        adj = {i: set() for i in range(n)}
        for i, j in itertools.combinations(range(n), 2):
            # no triangle dual has a degree above 3
            if rng.random() < rng.choice((0.15, 0.3, 0.6)) and max(len(adj[i]), len(adj[j])) < 3:
                adj[i].add(j)
                adj[j].add(i)
        nb, alive = as_table(adj)
        match = [-1] * len(alive)
        blossom_maximum_matching(nb, alive, match)
        validate_matching(nb, alive, match)
        assert _n_matched(match) // 2 == max_matching_size(adj)


def _random_graph(rng, n, degree):
    """n nodes and up to n * degree / 2 random edges, none of them taking a
    node past degree 3."""
    adj = {i: set() for i in range(n)}
    for _ in range(n * degree // 2):
        i, j = rng.sample(range(n), 2)
        if max(len(adj[i]), len(adj[j])) < 3:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def _perturbed_dual(rng, kind, cut):
    """The dual of a relabelled torus or icosphere with a few centroid splits,
    less `cut` random dual edges, so that it need not be cubic or perfectly
    matchable."""
    if kind == "torus":
        mesh = torus(rng.randint(3, 10), rng.randint(3, 10))
    else:
        mesh = icosphere(rng.randint(0, 2))
    for t in rng.sample(range(mesh.n_triangles), rng.randint(0, 6)):
        insert_centroid(mesh, t)
    dual = dual_rows(relabel(mesh, rng))
    for _ in range(cut):
        t = rng.choice(sorted(dual))
        if dual[t]:
            u = dual[t][rng.randrange(len(dual[t]))]
            dual[t] = [n for n in dual[t] if n != u]
            dual[u] = [n for n in dual[u] if n != t]
    return dual


def _random_seed_matching(rng, adj):
    """A valid (not necessarily maximal) matching from shuffled edges."""
    edges = [(v, u) for v in adj for u in adj[v] if v < u]
    rng.shuffle(edges)
    seed = {}
    for v, u in edges[: len(edges) // 2]:
        if v not in seed and u not in seed:
            seed[v] = u
            seed[u] = v
    return seed


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "torus", "icosphere"]),
    n=st.integers(2, 300),
    degree=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_blossom_size_matches_networkx(kind, n, degree, seed):
    # random graphs have n nodes and about n * degree / 2 edges; the
    # perturbed duals lose degree - 1 edges
    rng = random.Random(seed)
    if kind == "random":
        adj = _random_graph(rng, n, degree)
        dual = {v: sorted(ns) for v, ns in adj.items()}
    else:
        dual = _perturbed_dual(rng, kind, degree - 1)
        adj = {t: set(nbrs) for t, nbrs in dual.items()}
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(adj)
    nx_graph.add_edges_from((v, u) for v in adj for u in adj[v])
    size = len(nx.max_weight_matching(nx_graph, maxcardinality=True))
    # the same graph with its rows in slot order and in id order
    table, sorted_table = as_table(dual), as_table({v: sorted(ns) for v, ns in adj.items()})
    for start in (None, _random_seed_matching(rng, adj)):
        match = as_partner_list(start or {}, len(table[1]))
        by_id = list(match)
        blossom_maximum_matching(*table, match)
        blossom_maximum_matching(*sorted_table, by_id)
        assert match == by_id
        assert _n_matched(match) // 2 == size
        assert all(match[v] >= 0 for v in start or ())
        validate_matching(*table, match)
        validate_matching(*sorted_table, match)


def _greedy_seed(dual):
    """The greedy phase's replayed matching of `dual`, as a partner dict."""
    partner = [-1] * (max(dual, default=-1) + 1)
    log, _picks = _greedy_consume({v: set(ns) for v, ns in dual.items()}, partner)
    replay_reductions(partner, log)
    return as_partner_map(partner)


_ORACLE_INPUTS = dict(
    kind=st.sampled_from(["random", "torus", "icosphere"]),
    n=st.integers(2, 300),
    degree=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)


def _oracle_input(kind, n, degree, seed):
    """A random graph as sorted rows, or a perturbed dual in slot order."""
    rng = random.Random(seed)
    if kind == "random":
        return rng, {v: sorted(ns) for v, ns in _random_graph(rng, n, degree).items()}
    return rng, _perturbed_dual(rng, kind, degree - 1)


@settings(max_examples=80, deadline=None)
@given(**_ORACLE_INPUTS)
def test_greedy_matches_the_heap_oracle(kind, n, degree, seed):
    # the oracle fills its sets from the same rows; sets filled from sorted
    # rows change the queue order and so the partner map
    _rng, dual = _oracle_input(kind, n, degree, seed)
    partner = [-1] * (max(dual, default=-1) + 1)
    log, picks = _greedy_consume({v: set(ns) for v, ns in dual.items()}, partner)
    want, want_log, want_picks = greedy_consume_by_heap({v: set(ns) for v, ns in dual.items()})
    assert as_partner_map(partner) == want
    assert picks == want_picks
    replay_reductions(partner, log)
    assert as_partner_map(partner) == replay_reductions_by_frozensets(want, want_log)


@settings(max_examples=80, deadline=None)
@given(**_ORACLE_INPUTS)
def test_blossom_matches_the_base_map_oracle(kind, n, degree, seed):
    rng, dual = _oracle_input(kind, n, degree, seed)
    adj = {v: set(ns) for v, ns in dual.items()}
    for start in (None, _random_seed_matching(rng, adj), _greedy_seed(dual)):
        want = blossom_by_base_map(dual, start)
        assert _grown(dual, start)[0] == want
        assert _grown({v: sorted(ns) for v, ns in adj.items()}, start)[0] == want


def test_blossom_on_2000_nodes_matches_networkx():
    # a relabelled torus dual with centroid splits and 60 edges cut: from
    # the greedy seed the searches run long, as on the benchmark's meshes
    rng = random.Random(2000)
    mesh = torus(40, 25)
    for t in rng.sample(range(mesh.n_triangles), 7):
        insert_centroid(mesh, t)
    dual = dual_rows(relabel(mesh, rng))
    for _ in range(60):
        t = rng.choice(sorted(dual))
        if dual[t]:
            u = dual[t][rng.randrange(len(dual[t]))]
            dual[t] = [n for n in dual[t] if n != u]
            dual[u] = [n for n in dual[u] if n != t]
    assert len(dual) == 2014
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(dual)
    nx_graph.add_edges_from((v, u) for v in dual for u in dual[v])
    size = len(nx.max_weight_matching(nx_graph, maxcardinality=True))
    assert size == 1007  # freeze the networkx value
    nb, alive = as_table(dual)
    for start in (None, _greedy_seed(dual)):
        match = as_partner_list(start or {}, len(alive))
        labelled = blossom_maximum_matching(nb, alive, match)
        validate_matching(nb, alive, match)
        assert _n_matched(match) // 2 == size
        assert as_partner_map(match) == blossom_by_base_map(dual, start)
        assert labelled > 0


@pytest.mark.parametrize(
    "graph,seed,labelled",
    [
        # 0 reaches 1, which is exposed: {0, 1}; then 2 reaches 1 and its
        # partner 0, and finds nothing more: {2, 1, 0}
        (path_graph(3), None, 2 + 3),
        # 0 reaches 1, its partner 2, then the exposed 3
        (path_graph(4), {1: 2, 2: 1}, 4),
        # 2 reaches 0 (partner 1), then 1 closes the triangle into a
        # blossom, and 3 is exposed: every node is labelled
        ({0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2]}, {0: 1, 1: 0}, 4),
    ],
)
def test_augment_nodes_counts_the_labelled_nodes(graph, seed, labelled):
    match, count = _grown(graph, seed)
    assert len(match) // 2 == max_matching_size({v: set(ns) for v, ns in graph.items()})
    assert count == labelled


def test_augment_nodes_is_zero_from_a_perfect_seed():
    seed = {0: 1, 1: 0, 2: 3, 3: 2}
    assert _grown(path_graph(4), seed) == (seed, 0)
    # the greedy phase matches all of a plain torus's dual
    state = perfect_match_dual(torus(12, 9))
    assert state.augmentations == 0
    assert state.augment_nodes == 0


def test_blossom_respects_seed():
    graph = cube_graph()
    seed = {0: 1, 1: 0}
    match, _labelled = _grown(graph, seed)
    assert match[0] == 1
    assert len(match) // 2 == 4


def test_blossom_rejects_invalid_seed():
    with pytest.raises(MatchingError):
        blossom_maximum_matching(*as_table(path_graph(4)), [2, -1, 0, -1])


def test_greedy_consume_is_maximal():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 14)
        adj = {i: set() for i in range(n)}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                adj[i].add(j)
                adj[j].add(i)
        # the greedy takes any degree, so the oracle checks its matching
        lifted = [-1] * n
        log, _picks = _greedy_consume({v: set(ns) for v, ns in adj.items()}, lifted)
        replay_reductions(lifted, log)
        lifted = as_partner_map(lifted)
        check_matching(adj, lifted)
        # maximal: no edge joins two unmatched nodes
        unmatched = set(adj) - set(lifted)
        for v in unmatched:
            assert not (adj[v] & unmatched)


def test_perfect_match_tetra_leaves_one_4cycle(tetra):
    dual = build_dual(tetra)
    partner = as_partner_map(perfect_match_dual(tetra).partner)
    assert partner.keys() == set(dual)
    cycles = unmatched_cycles({t: set(nbrs) for t, nbrs in dual.items()}, partner)
    assert [len(c) for c in cycles] == [4]


def test_k4_every_perfect_matching_leaves_a_4cycle():
    from oracles import all_perfect_matchings

    k4 = complete_graph(4)
    matchings = all_perfect_matchings(k4)
    assert len(matchings) == 3
    for partner in matchings:
        cycles = unmatched_cycles(k4, partner)
        assert [len(c) for c in cycles] == [4]


def test_perfect_match_octahedron(octa):
    state = perfect_match_dual(octa)
    assert _n_matched(state.partner) == 8


def test_perfect_match_torus400(torus400):
    state = perfect_match_dual(torus400)
    assert _n_matched(state.partner) == 400
    validate_matching(torus400.neighbours, torus400.alive, state.partner)


def test_perfect_match_rejects_tree_dual():
    with pytest.raises(MatchingError) as info:
        perfect_match_dual(gen_mk(2))
    assert info.value.unmatched


def test_augmentation_accounting():
    mesh = torus(12, 9)
    state = perfect_match_dual(mesh)
    assert state.augmentations == (mesh.n_triangles - state.greedy_matched) // 2


def test_greedy_coverage_on_large_torus():
    mesh = torus(100, 60)  # 12000 triangles
    state = perfect_match_dual(mesh)
    coverage = state.greedy_matched / mesh.n_triangles
    assert coverage >= 0.95
    print(f"greedy coverage on torus(100,60): {coverage:.4f}")


def test_determinism():
    a = perfect_match_dual(torus(10, 8)).partner
    b = perfect_match_dual(torus(10, 8)).partner
    assert a == b
    # twice on one mesh object, with dead slots and an augmenting search:
    # the greedy consumes its sets, so a run that cached or shared them, or
    # edited the table, would leave the second run another matching
    rng = random.Random(1)
    mesh = icosphere(2)
    for t in rng.sample(range(mesh.n_triangles), 20):
        insert_centroid(mesh, t)
    mesh = relabel(mesh, rng)
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    neighbours, alive = list(mesh.neighbours), list(mesh.alive)
    first, second = perfect_match_dual(mesh), perfect_match_dual(mesh)
    assert first.augmentations == 1 and first.augment_nodes > 0
    assert first.partner is not second.partner
    for field in fields(MatchState):
        assert getattr(first, field.name) == getattr(second, field.name), field.name
    assert mesh.neighbours == neighbours
    assert mesh.alive == alive


def _centroid_torus():
    mesh = torus(8, 6)
    for t in (0, 17, 30):
        insert_centroid(mesh, t)
    return mesh


def _off_the_dual(mesh, partner):
    """The seed with two pairs (a, b), (c, d) re-paired as (a, c), (b, d),
    where c is no neighbour of a."""
    a = next(v for v, u in enumerate(partner) if u >= 0)
    b = partner[a]
    row = mesh.neighbours[3 * a : 3 * a + 3]
    c = next(t for t in mesh.alive_ids() if t not in (a, b) and t not in row and partner[t] >= 0)
    d = partner[c]
    partner[a], partner[c], partner[b], partner[d] = c, a, d, b


def _one_sided(mesh, partner):
    """The first matched triangle pointed at another of its neighbours,
    whose own entry is left as it is."""
    a = next(v for v, u in enumerate(partner) if u >= 0)
    partner[a] = next(u for u in mesh.neighbours[3 * a : 3 * a + 3] if u != partner[a])


def _retired_pair(mesh, partner):
    """Two retired triangles matched to each other, each listed in the
    other's stale row: only their live flags tell them apart from a pair."""
    nb, alive = mesh.neighbours, mesh.alive
    t, u = next(
        (t, u)
        for t in range(len(alive)) if not alive[t]
        for u in nb[3 * t : 3 * t + 3] if u >= 0 and not alive[u] and t in nb[3 * u : 3 * u + 3]
    )
    partner[t], partner[u] = u, t


def _stripify_with_a_replayed_seed(monkeypatch, mesh, corrupt):
    """`stripify(mesh)`, with `corrupt(work mesh, seed)` applied to the
    replayed greedy seed in place; returns the MatchingError it raises."""
    from singlestrip import matching
    from singlestrip.striploop import stripify

    seen = {}

    def dual_of(work):
        seen["mesh"] = work
        return build_dual(work)

    def replay(partner, log):
        replay_reductions(partner, log)
        corrupt(seen["mesh"], partner)

    monkeypatch.setattr(matching, "build_dual", dual_of)
    monkeypatch.setattr(matching, "replay_reductions", replay)
    with pytest.raises(MatchingError) as info:
        stripify(mesh)
    return info.value


@pytest.mark.parametrize(
    "make", [lambda: torus(6, 5), _centroid_torus], ids=["torus", "torus-with-centroids"]
)
def test_a_replayed_seed_off_the_dual_ends_in_a_typed_error(monkeypatch, make):
    # a seed that pairs two non-adjacent triangles is caught by the seed
    # check of the blossom phase, in the match stage, before any order
    error = _stripify_with_a_replayed_seed(monkeypatch, make(), _off_the_dual)
    assert "is not an edge" in str(error)
    assert error.stage == "match"


@pytest.mark.parametrize(
    "corrupt,message",
    [(_one_sided, "^matching is not symmetric at "), (_retired_pair, "^retired triangle ")],
    ids=["one-sided", "retired-pair"],
)
def test_the_seed_check_rejects_a_one_sided_or_retired_pair(monkeypatch, corrupt, message):
    # the retired pair is two fan triangles of an eliminated centroid
    error = _stripify_with_a_replayed_seed(monkeypatch, _centroid_torus(), corrupt)
    assert re.match(message, str(error))
    assert error.stage == "match"


# -- the seed check against its loop ---------------------------------------------

_CORRUPTIONS = ("one-sided", "retired-pair", "non-edge", "beyond", "int32", "minus-two", "dead-to-live")


def _eliminated_centroid_torus():
    # dead slots: the eliminated centroids' fan triangles, whose stale rows
    # still list each other
    mesh = _centroid_torus()
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    return mesh


def _corrupt(mesh, partner, kind, pick):
    """Apply one corruption of `kind` to `partner`, at the pick-th place."""
    nb, alive = mesh.neighbours, mesh.alive
    live = mesh.alive_ids()
    dead = [t for t in range(len(alive)) if not alive[t]]
    a = live[pick % len(live)]
    row = nb[3 * a : 3 * a + 3]
    if kind == "one-sided":
        partner[a] = next(u for u in row if u != partner[a])
    elif kind == "retired-pair":
        pairs = [
            (t, u) for t in dead
            for u in nb[3 * t : 3 * t + 3] if u >= 0 and not alive[u] and t in nb[3 * u : 3 * u + 3]
        ]
        t, u = pairs[pick % len(pairs)]
        partner[t], partner[u] = u, t
    elif kind == "non-edge":
        partner[a] = next(t for t in live[pick % len(live):] + live if t != a and t not in row)
    elif kind == "beyond":
        partner[a] = len(partner) + pick % 3
    elif kind == "int32":
        partner[a] = 2**31
    elif kind == "minus-two":
        partner[a] = -2
    else:
        partner[dead[pick % len(dead)]] = a


def _seed_check_outcome(check, nb, alive, partner):
    try:
        check(nb, alive, partner)
    except MatchingError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", _CORRUPTIONS)
def test_the_seed_check_names_what_its_loop_names(kind):
    mesh = _eliminated_centroid_torus()
    partner = perfect_match_dual(mesh).partner
    assert _seed_check_outcome(validate_matching, mesh.neighbours, mesh.alive, partner) is None
    _corrupt(mesh, partner, kind, 5)
    got = _seed_check_outcome(validate_matching, mesh.neighbours, mesh.alive, partner)
    assert got is not None
    assert got == _seed_check_outcome(validate_matching_by_loop, mesh.neighbours, mesh.alive, partner)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CORRUPTIONS), st.integers(0, 10**6)), max_size=4))
def test_the_seed_check_agrees_with_its_loop_on_corrupted_seeds(corruptions):
    mesh = _eliminated_centroid_torus()
    partner = perfect_match_dual(mesh).partner
    for kind, pick in corruptions:
        _corrupt(mesh, partner, kind, pick)
    nb, alive = mesh.neighbours, mesh.alive
    got = _seed_check_outcome(validate_matching, nb, alive, partner)
    assert got == _seed_check_outcome(validate_matching_by_loop, nb, alive, partner)


# -- the match stage's heap peak ---------------------------------------------------

# bytes per live triangle by which perfect_match_dual's heap peak rises above
# its start on the mesh below: 304.1 as measured, and the figure repeats
# exactly, plus 2%. A 10% margin would catch neither fault this guards
# against: an int64 copy of the table held at the peak adds 9%, and a greedy
# log that keeps the popped sets in place of tuples adds 4.5%.
MATCH_PEAK_BYTES_PER_TRIANGLE = 304.1 * 1.02


def test_the_match_stage_heap_peak_stays_pinned():
    # the greedy's neighbour sets and its contraction log set the peak, so
    # a stray array or a log that keeps whole sets shows here before it
    # shows in RSS
    rng = random.Random(1)
    mesh = relabel(torus(60, 30), rng)
    for t in rng.sample(range(mesh.n_triangles), 108):
        insert_centroid(mesh, t)
    eliminate_three_cycles(mesh, _vertex_fans(mesh))
    assert mesh.n_triangles == 3600
    mesh.neighbours  # sorted before the trace starts
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        perfect_match_dual(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / mesh.n_triangles <= MATCH_PEAK_BYTES_PER_TRIANGLE
