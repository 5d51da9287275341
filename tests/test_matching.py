"""Greedy reductions, contraction replay, blossom augmentation."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blossom_by_base_map,
    complete_graph,
    cube_graph,
    dual_by_shared_vertices,
    greedy_consume_by_heap,
    greedy_reduce,
    insert_centroid,
    max_matching_size,
    path_graph,
    petersen_graph,
    relabel,
    replay_reductions_by_frozensets,
    unmatched_cycles,
)
from singlestrip.boundary import gen_mk
from singlestrip.generators import icosphere, torus
from singlestrip.matching import (
    MatchingError,
    MatchState,
    blossom_maximum_matching,
    perfect_match_dual,
    replay_reductions,
    validate_matching,
    _adjacency,
    _greedy_consume,
)
from singlestrip.mesh import build_dual


def test_greedy_reduce_path4_all_forced():
    reduced, partner, log = greedy_reduce(path_graph(4))
    assert reduced == {}
    assert partner == {0: 1, 1: 0, 2: 3, 3: 2}


def test_greedy_reduce_m2_dual_tree_is_maximum():
    mesh = gen_mk(2)
    dual = build_dual(mesh)
    reduced, partner, log = greedy_reduce(dual)
    assert reduced == {}
    full = replay_reductions(partner, log)
    validate_matching(dual, full)
    assert len(full) // 2 == max_matching_size(dual_by_shared_vertices(mesh))


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
        # valid matching of the input of the same total size
        sub = blossom_maximum_matching(reduced) if reduced else {}
        lifted = replay_reductions({**partner, **sub}, log)
        validate_matching(adj, lifted)
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
    match = blossom_maximum_matching(graph)
    validate_matching(graph, match)
    assert len(match) // 2 == size


def test_blossom_oracle_equivalence_random_graphs():
    rng = random.Random(23)
    for _ in range(250):
        n = rng.randint(2, 12)
        adj = {i: set() for i in range(n)}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < rng.choice((0.15, 0.3, 0.6)):
                adj[i].add(j)
                adj[j].add(i)
        match = blossom_maximum_matching(adj)
        validate_matching(adj, match)
        assert len(match) // 2 == max_matching_size(adj)


def _random_graph(rng, n, degree):
    adj = {i: set() for i in range(n)}
    for _ in range(n * degree // 2):
        i, j = rng.sample(range(n), 2)
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
    dual = build_dual(relabel(mesh, rng))
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
    for start in (None, _random_seed_matching(rng, adj)):
        match = blossom_maximum_matching(dual, start)
        assert match == blossom_maximum_matching(adj, start)
        assert len(match) // 2 == size
        assert all(v in match for v in start or ())
        validate_matching(dual, match)
        validate_matching(adj, match)


def _greedy_seed(dual):
    return replay_reductions(*_greedy_consume(_adjacency(dual))[:2])


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
    partner, log, picks = _greedy_consume(_adjacency(dual))
    want, want_log, want_picks = greedy_consume_by_heap({v: set(ns) for v, ns in dual.items()})
    assert partner == want
    assert picks == want_picks
    assert replay_reductions(partner, log) == replay_reductions_by_frozensets(want, want_log)


@settings(max_examples=80, deadline=None)
@given(**_ORACLE_INPUTS)
def test_blossom_matches_the_base_map_oracle(kind, n, degree, seed):
    rng, dual = _oracle_input(kind, n, degree, seed)
    adj = {v: set(ns) for v, ns in dual.items()}
    for start in (None, _random_seed_matching(rng, adj), _greedy_seed(dual)):
        want = blossom_by_base_map(dual, start)
        assert blossom_maximum_matching(dual, start) == want
        assert blossom_maximum_matching(adj, start) == want


def test_blossom_on_2000_nodes_matches_networkx():
    # a relabelled torus dual with centroid splits and 60 edges cut: from
    # the greedy seed the searches run long, as on the benchmark's meshes
    rng = random.Random(2000)
    mesh = torus(40, 25)
    for t in rng.sample(range(mesh.n_triangles), 7):
        insert_centroid(mesh, t)
    dual = build_dual(relabel(mesh, rng))
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
    for start in (None, _greedy_seed(dual)):
        state = MatchState({})
        match = blossom_maximum_matching(dual, start, state)
        validate_matching(dual, match)
        assert len(match) // 2 == size
        assert match == blossom_by_base_map(dual, start)
        assert state.augment_nodes > 0


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
    state = MatchState({})
    match = blossom_maximum_matching(graph, seed, state)
    assert len(match) // 2 == max_matching_size({v: set(ns) for v, ns in graph.items()})
    assert state.augment_nodes == labelled


def test_augment_nodes_is_zero_from_a_perfect_seed():
    state = MatchState({})
    seed = {0: 1, 1: 0, 2: 3, 3: 2}
    assert blossom_maximum_matching(path_graph(4), seed, state) == seed
    assert state.augment_nodes == 0
    # the greedy phase matches all of a plain torus's dual
    state = perfect_match_dual(build_dual(torus(12, 9)))
    assert state.augmentations == 0
    assert state.augment_nodes == 0


def test_blossom_respects_seed():
    graph = cube_graph()
    seed = {0: 1, 1: 0}
    match = blossom_maximum_matching(graph, seed)
    assert match[0] == 1
    assert len(match) // 2 == 4


def test_blossom_rejects_invalid_seed():
    with pytest.raises(MatchingError):
        blossom_maximum_matching(path_graph(4), {0: 2, 2: 0})


def test_greedy_consume_is_maximal():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 14)
        adj = {i: set() for i in range(n)}
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                adj[i].add(j)
                adj[j].add(i)
        partner, log, _picks = _greedy_consume({v: set(ns) for v, ns in adj.items()})
        lifted = replay_reductions(partner, log)
        validate_matching(adj, lifted)
        # maximal: no edge joins two unmatched nodes
        unmatched = set(adj) - set(lifted)
        for v in unmatched:
            assert not (adj[v] & unmatched)


def test_perfect_match_tetra_leaves_one_4cycle(tetra):
    dual = build_dual(tetra)
    state = perfect_match_dual(dual)
    assert state.partner.keys() == set(dual)
    cycles = unmatched_cycles({t: set(nbrs) for t, nbrs in dual.items()}, state.partner)
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
    state = perfect_match_dual(build_dual(octa))
    assert state.size == 4


def test_perfect_match_torus400(torus400):
    dual = build_dual(torus400)
    state = perfect_match_dual(dual)
    assert state.size == 200
    validate_matching(dual, state.partner)


def test_perfect_match_rejects_tree_dual():
    dual = build_dual(gen_mk(2))
    with pytest.raises(MatchingError) as info:
        perfect_match_dual(dual)
    assert info.value.unmatched


def test_augmentation_accounting():
    mesh = torus(12, 9)
    dual = build_dual(mesh)
    state = perfect_match_dual(dual)
    assert state.augmentations == (len(dual) - state.greedy_matched) // 2


def test_greedy_coverage_on_large_torus():
    mesh = torus(100, 60)  # 12000 triangles
    dual = build_dual(mesh)
    state = perfect_match_dual(dual)
    coverage = state.greedy_matched / len(dual)
    assert coverage >= 0.95
    print(f"greedy coverage on torus(100,60): {coverage:.4f}")


def test_determinism():
    dual = build_dual(torus(10, 8))
    a = perfect_match_dual(dual).partner
    b = perfect_match_dual(build_dual(torus(10, 8))).partner
    assert a == b
