"""The one graph module: a small undirected graph and the paths over it.

:class:`Graph` keeps its adjacency as insertion-ordered dicts: nodes in
the order they were first added, each node's neighbours in the order
their edges were first added.  That order is the tie-break rule of
every path function below — a search visits neighbours in adjacency
order, so among equal-cost paths the one built from earlier
insertions wins — and the flow-mods the apps derive from those paths,
hence every run digest, depend on it.  The functions read nothing but
``graph.adj`` (node -> iterable of neighbours) and visit nodes in
exactly the order of the graph library this module replaced;
``tests/test_graphutil.py`` runs both on random graphs and asserts the
same answers, order included.

:func:`canonical_tree_edges` is the exception that ignores insertion
order: a spanning tree that *any* two parties with the same edge set
derive identically, regardless of how their adjacency databases were
populated.  Distributed tree-flooding is only loop-free if every switch
agrees on the tree, which an insertion-ordered BFS would silently break.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional,
    Set, Tuple,
)

from repro.errors import ZenError

__all__ = [
    "FrozenGraphError", "Graph", "NoPath", "all_shortest_paths",
    "canonical_tree_edges", "is_connected", "shortest_path",
    "shortest_simple_paths", "single_source_shortest_path",
]

Node = Hashable
Path = List[Node]


class NoPath(ZenError):
    """No path joins the two nodes, or a node is not in the graph."""


class FrozenGraphError(ZenError):
    """A write to a graph that was frozen to be shared read-only."""


class Graph:
    """An undirected simple graph with insertion-ordered adjacency.

    Re-adding an edge or a node keeps its first position.  A self-loop
    is a node that neighbours itself.  :meth:`freeze` makes the graph
    read-only in place; :meth:`copy` gives a private, writable copy.
    """

    __slots__ = ("adj", "_frozen")

    def __init__(self) -> None:
        #: node -> {neighbour: None}, both levels in insertion order.
        self.adj: Dict[Node, Dict[Node, None]] = {}
        self._frozen = False

    def _write(self) -> Dict[Node, Dict[Node, None]]:
        if self._frozen:
            raise FrozenGraphError(
                "this graph is shared read-only: copy() it to change it")
        return self.adj

    def add_node(self, node: Node) -> None:
        self._write().setdefault(node, {})

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        adj = self._write()
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None

    def remove_edges_from(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Remove each ``(u, v)``; edges the graph lacks are ignored."""
        adj = self._write()
        for u, v in edges:
            if v in adj.get(u, ()):
                del adj[u][v]
                adj[v].pop(u, None)

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def copy(self) -> "Graph":
        """A writable copy, built nodes first, then each node's edges
        in adjacency order: a neighbour reached from an earlier node
        moves ahead, so the copy's adjacency order can differ."""
        graph = Graph()
        graph.add_nodes(self.adj)
        for u, neighbours in self.adj.items():
            for v in neighbours:
                graph.add_edge(u, v)
        return graph

    @property
    def nodes(self):
        return self.adj.keys()

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self.adj[node])

    def edges(self) -> List[Tuple[Node, Node]]:
        """Each edge once, in node order, from the first of its two
        ends."""
        seen: Set[Node] = set()
        edges = []
        for u, neighbours in self.adj.items():
            edges.extend((u, v) for v in neighbours if v not in seen)
            seen.add(u)
        return edges

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self.adj.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def number_of_edges(self) -> int:
        return len(self.edges())

    def __contains__(self, node: Node) -> bool:
        return node in self.adj


# ----------------------------------------------------------------------
# Paths.  Every function takes anything with an ``adj`` mapping.
# ----------------------------------------------------------------------
def _require(adj, *nodes: Node) -> None:
    for node in nodes:
        if node not in adj:
            raise NoPath(f"node {node!r} is not in the graph")


def single_source_shortest_path(graph, source: Node) -> Dict[Node, Path]:
    """``{node: path from source}`` for every node ``source`` reaches,
    keyed in the order a level-by-level BFS first reaches them."""
    adj = graph.adj
    _require(adj, source)
    paths = {source: [source]}
    level = [source]
    while level:
        next_level = []
        for v in level:
            for w in adj[v]:
                if w not in paths:
                    paths[w] = paths[v] + [w]
                    next_level.append(w)
        level = next_level
    return paths


def _meet(adj, source: Node, target: Node,
          blocked: Optional[Callable[[Node, Node], bool]] = None) -> Path:
    """Bidirectional BFS: grow the smaller fringe (the forward one on a
    tie) by one level, and stop at the first node both sides have seen.
    ``blocked(v, w)`` vetoes the step from ``v`` to ``w``."""
    if source == target:
        return [source]
    pred = {source: None}
    succ = {target: None}
    forward, reverse = [source], [target]
    meet = None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            seen, other, fringe = pred, succ, forward
        else:
            level, reverse = reverse, []
            seen, other, fringe = succ, pred, reverse
        for v in level:
            for w in adj[v]:
                if blocked is not None and blocked(v, w):
                    continue
                if w not in seen:
                    seen[w] = v
                    fringe.append(w)
                if w in other:
                    meet = w
                    break
            if meet is not None:
                break
    if meet is None:
        raise NoPath(f"no path between {source!r} and {target!r}")
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def shortest_path(graph, source: Node, target: Node) -> Path:
    """The fewest-hops path a bidirectional search meets on first."""
    adj = graph.adj
    _require(adj, source, target)
    return _meet(adj, source, target)


def all_shortest_paths(graph, source: Node, target: Node) -> List[Path]:
    """Every fewest-hops path; those through an earlier predecessor of
    the target first."""
    adj = graph.adj
    _require(adj, source, target)
    preds: Dict[Node, List[Node]] = {source: []}
    depth = {source: 0}
    level = [source]
    while level and target not in preds:
        next_level = []
        for v in level:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    preds[w] = [v]
                    next_level.append(w)
                elif depth[w] == depth[v] + 1:
                    preds[w].append(v)
        level = next_level
    if target not in preds:
        raise NoPath(f"no path between {source!r} and {target!r}")

    def ending_at(node: Node) -> List[Path]:
        if node == source:
            return [[source]]
        return [path + [node]
                for pred in preds[node] for path in ending_at(pred)]

    return ending_at(target)


def shortest_simple_paths(graph, source: Node,
                          target: Node) -> Iterator[Path]:
    """Loop-free paths, fewest hops first, ties in the order they were
    found (Yen's algorithm); raises :class:`NoPath` on the first
    ``next`` when there is none."""
    adj = graph.adj
    _require(adj, source, target)
    found: List[Path] = []
    candidates: list = []  # (hops, push order, path) heap
    queued: Set[tuple] = set()
    order = count()

    def push(path: Path) -> None:
        key = tuple(path)
        if key not in queued:
            queued.add(key)
            heappush(candidates, (len(path), next(order), path))

    push(_meet(adj, source, target))
    while candidates:
        path = heappop(candidates)[2]
        queued.discard(tuple(path))
        yield path
        found.append(path)
        # Spur from each node of the path in turn, off every edge a
        # path already found takes from the same root.
        no_nodes: Set[Node] = set()
        no_edges: Set[Tuple[Node, Node]] = set()

        def blocked(v: Node, w: Node) -> bool:
            return (w in no_nodes or (v, w) in no_edges
                    or (w, v) in no_edges)

        for i in range(1, len(path)):
            root = path[:i]
            for other in found:
                if other[:i] == root:
                    no_edges.add((other[i - 1], other[i]))
            try:
                spur = _meet(adj, root[-1], target, blocked)
            except NoPath:
                pass
            else:
                push(root[:-1] + spur)
            no_nodes.add(root[-1])


def is_connected(graph) -> bool:
    """Whether every node reaches every other; the empty graph has no
    answer and raises :class:`NoPath`."""
    adj = graph.adj
    if not len(adj):
        raise NoPath("connectivity is undefined for the empty graph")
    return len(single_source_shortest_path(graph, next(iter(adj)))) == len(adj)


def canonical_tree_edges(graph) -> Set[FrozenSet]:
    """A BFS spanning tree rooted at the minimum node id.

    Neighbours are visited in sorted order, so the result is a pure
    function of the edge set.  Returns edges as ``frozenset({u, v})``;
    disconnected components each get their own tree (rooted at their
    minimum node).
    """
    adj = graph.adj
    edges: Set[FrozenSet] = set()
    seen: Set = set()
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        level = [start]
        while level:
            next_level = []
            for node in level:
                for neighbour in sorted(adj[node]):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        edges.add(frozenset((node, neighbour)))
                        next_level.append(neighbour)
            level = next_level
    return edges
