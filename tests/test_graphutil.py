"""``repro.graphutil`` answers exactly what networkx answers.

networkx is the reference here and nowhere else: the runtime never
imports it.  Every run digest depends on the order in which path ties
are broken, so the comparison includes order — dict key order, path
choice among equals, edge listing order, adjacency order after a copy.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphutil import (
    FrozenGraphError,
    Graph,
    NoPath,
    all_shortest_paths,
    canonical_tree_edges,
    is_connected,
    shortest_path,
    shortest_simple_paths,
    single_source_shortest_path,
)

NODES = st.integers(min_value=0, max_value=7)
UNKNOWN = 99

NO_PATH = "no path"


@st.composite
def graphs(draw):
    """The same build, call for call, on both graphs: nodes in a
    shuffled order (some isolated, so some graphs are disconnected),
    then edges, repeats (parallel links re-added) and self-loops
    included."""
    nodes = draw(st.permutations(range(draw(st.integers(0, 8)))))
    nodes = nodes[:draw(st.integers(0, len(nodes)))]
    edges = draw(st.lists(st.tuples(NODES, NODES), max_size=16))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)
                  if edges else st.just([]))
    mine, ref = Graph(), nx.Graph()
    mine.add_nodes(nodes)
    ref.add_nodes_from(nodes)
    for u, v in edges:
        mine.add_edge(u, v)
        ref.add_edge(u, v)
    return mine, ref


def answer(call, *errors):
    try:
        return call()
    except errors:
        return NO_PATH


def ours(call):
    return answer(call, NoPath)


def theirs(call):
    return answer(call, nx.NetworkXNoPath, nx.NodeNotFound)


def adjacency(graph):
    return [(node, list(graph.adj[node])) for node in graph.adj]


def endpoints(ref):
    return list(ref.nodes) + [UNKNOWN]


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_the_graph_itself(pair):
    mine, ref = pair
    assert list(mine.nodes) == list(ref.nodes)
    assert adjacency(mine) == adjacency(ref)
    assert mine.edges() == list(ref.edges())
    assert mine.number_of_edges() == ref.number_of_edges()
    assert mine.number_of_nodes() == ref.number_of_nodes()
    for u, v in itertools.product(endpoints(ref), repeat=2):
        assert mine.has_edge(u, v) == ref.has_edge(u, v)
        assert (u in mine) == (u in ref)
    # A copy may reorder adjacency; it must reorder it the same way,
    # and pruning it must leave the original alone.
    mine_copy, ref_copy = mine.copy(), ref.copy()
    assert adjacency(mine_copy) == adjacency(ref_copy)
    doomed = list(ref.edges())[::2] + [(UNKNOWN, 0)]
    mine_copy.remove_edges_from(doomed)
    ref_copy.remove_edges_from(doomed)
    assert adjacency(mine_copy) == adjacency(ref_copy)
    assert adjacency(mine) == adjacency(ref)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_every_path_function_matches(pair):
    mine, ref = pair
    for source in endpoints(ref):
        expected = theirs(lambda: nx.single_source_shortest_path(ref, source))
        got = ours(lambda: single_source_shortest_path(mine, source))
        if expected == NO_PATH:
            assert got == NO_PATH
        else:
            assert list(got.items()) == list(expected.items())
        for target in endpoints(ref):
            assert (ours(lambda: shortest_path(mine, source, target))
                    == theirs(lambda: nx.shortest_path(ref, source, target)))
            assert (ours(lambda: all_shortest_paths(mine, source, target))
                    == theirs(lambda: list(
                        nx.all_shortest_paths(ref, source, target))))
            assert (ours(lambda: list(itertools.islice(
                        shortest_simple_paths(mine, source, target), 4)))
                    == theirs(lambda: list(itertools.islice(
                        nx.shortest_simple_paths(ref, source, target), 4))))
    if len(ref):
        assert is_connected(mine) == nx.is_connected(ref)
    else:
        with pytest.raises(NoPath):
            is_connected(mine)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_the_functions_read_an_nx_graph_too(pair):
    mine, ref = pair
    for source, target in itertools.product(endpoints(ref), repeat=2):
        assert (ours(lambda: shortest_path(ref, source, target))
                == ours(lambda: shortest_path(mine, source, target)))
    assert canonical_tree_edges(ref) == canonical_tree_edges(mine)


def test_every_no_path_case_raises_nopath():
    graph = Graph()
    graph.add_edge(1, 2)
    graph.add_node(3)
    calls = [
        lambda: shortest_path(graph, 1, 3),
        lambda: shortest_path(graph, 1, UNKNOWN),
        lambda: shortest_path(graph, UNKNOWN, 1),
        lambda: all_shortest_paths(graph, 1, 3),
        lambda: all_shortest_paths(graph, UNKNOWN, 1),
        lambda: next(shortest_simple_paths(graph, 1, 3)),
        lambda: next(shortest_simple_paths(graph, 1, UNKNOWN)),
        lambda: single_source_shortest_path(graph, UNKNOWN),
        lambda: is_connected(Graph()),
    ]
    for call in calls:
        with pytest.raises(NoPath):
            call()
    assert not is_connected(graph)


def test_a_frozen_graph_refuses_every_write_and_copies_writable():
    graph = Graph()
    graph.add_edge(1, 2)
    graph.freeze()
    for write in (lambda: graph.add_node(3),
                  lambda: graph.add_nodes([3]),
                  lambda: graph.add_edge(1, 3),
                  lambda: graph.remove_edges_from([(1, 2)])):
        with pytest.raises(FrozenGraphError):
            write()
    assert graph.edges() == [(1, 2)]
    pruned = graph.copy()
    pruned.remove_edges_from([(1, 2)])
    assert pruned.edges() == [] and graph.has_edge(1, 2)
