"""Mutable bipartite graph with adjacency sets.

The data structure deliberately mirrors how the paper's algorithms consume
graphs: all of them repeatedly ask for the neighbourhood of a vertex as a
set (to intersect with candidate sets), for vertex degrees, for induced
subgraphs, and for per-side vertex collections.  Adjacency sets keyed by
vertex label give all of these operations in expected constant or
output-sensitive time without any index translation layer.

The two sides have *independent* label spaces: the left vertex ``3`` and the
right vertex ``3`` are different vertices.  This matches bipartite datasets
(users vs. items, genes vs. conditions) where the two sides are drawn from
unrelated identifier spaces, and it lets generators reuse small integer
labels on both sides without collisions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import (
    DuplicateVertexError,
    InvalidEdgeError,
    VertexNotFoundError,
)

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Side markers used throughout the library.
LEFT = "L"
RIGHT = "R"


class BipartiteGraph:
    """A bipartite graph ``G = (L, R, E)`` backed by adjacency sets.

    Parameters
    ----------
    left, right:
        Optional iterables of vertex labels to pre-populate the two sides.
    edges:
        Optional iterable of ``(u, v)`` pairs with ``u`` on the left side and
        ``v`` on the right side.  Endpoints are created on demand.

    Examples
    --------
    >>> g = BipartiteGraph(edges=[(1, "a"), (1, "b"), (2, "a")])
    >>> sorted(g.neighbors_left(1))
    ['a', 'b']
    >>> g.num_edges
    3
    """

    __slots__ = ("_adj_left", "_adj_right", "_num_edges", "_version")

    def __init__(
        self,
        left: Optional[Iterable[Vertex]] = None,
        right: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj_left: Dict[Vertex, Set[Vertex]] = {}
        self._adj_right: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        self._version = 0
        if left is not None:
            for u in left:
                self.add_left_vertex(u, exist_ok=True)
        if right is not None:
            for v in right:
                self.add_right_vertex(v, exist_ok=True)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------
    def add_left_vertex(self, u: Vertex, *, exist_ok: bool = False) -> None:
        """Add an isolated vertex to the left side."""
        if u in self._adj_left:
            if exist_ok:
                return
            raise DuplicateVertexError(LEFT, u)
        self._adj_left[u] = set()
        self._version += 1

    def add_right_vertex(self, v: Vertex, *, exist_ok: bool = False) -> None:
        """Add an isolated vertex to the right side."""
        if v in self._adj_right:
            if exist_ok:
                return
            raise DuplicateVertexError(RIGHT, v)
        self._adj_right[v] = set()
        self._version += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the edge ``(u, v)`` creating missing endpoints on demand.

        Adding an edge that already exists is a no-op; the edge count is not
        inflated, which keeps :attr:`density` meaningful for generators that
        may sample the same pair twice.
        """
        self.add_left_vertex(u, exist_ok=True)
        self.add_right_vertex(v, exist_ok=True)
        if v not in self._adj_left[u]:
            self._adj_left[u].add(v)
            self._adj_right[v].add(u)
            self._num_edges += 1
            self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; raise if the edge is absent."""
        if u not in self._adj_left:
            raise VertexNotFoundError(LEFT, u)
        if v not in self._adj_right:
            raise VertexNotFoundError(RIGHT, v)
        if v not in self._adj_left[u]:
            raise InvalidEdgeError(f"edge ({u!r}, {v!r}) not present")
        self._adj_left[u].discard(v)
        self._adj_right[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def remove_left_vertex(self, u: Vertex) -> None:
        """Remove ``u`` from the left side together with its incident edges."""
        if u not in self._adj_left:
            raise VertexNotFoundError(LEFT, u)
        for v in self._adj_left[u]:
            self._adj_right[v].discard(u)
        self._num_edges -= len(self._adj_left[u])
        del self._adj_left[u]
        self._version += 1

    def remove_right_vertex(self, v: Vertex) -> None:
        """Remove ``v`` from the right side together with its incident edges."""
        if v not in self._adj_right:
            raise VertexNotFoundError(RIGHT, v)
        for u in self._adj_right[v]:
            self._adj_left[u].discard(v)
        self._num_edges -= len(self._adj_right[v])
        del self._adj_right[v]
        self._version += 1

    def remove_vertices(
        self,
        left: Iterable[Vertex] = (),
        right: Iterable[Vertex] = (),
    ) -> None:
        """Remove several vertices at once (missing vertices are ignored)."""
        for u in list(left):
            if u in self._adj_left:
                self.remove_left_vertex(u)
        for v in list(right):
            if v in self._adj_right:
                self.remove_right_vertex(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def left(self) -> Set[Vertex]:
        """A fresh set with the left-side vertex labels."""
        return set(self._adj_left)

    @property
    def right(self) -> Set[Vertex]:
        """A fresh set with the right-side vertex labels."""
        return set(self._adj_right)

    def left_vertices(self) -> Iterator[Vertex]:
        """Iterate over the left-side vertex labels."""
        return iter(self._adj_left)

    def right_vertices(self) -> Iterator[Vertex]:
        """Iterate over the right-side vertex labels."""
        return iter(self._adj_right)

    @property
    def num_left(self) -> int:
        """Number of vertices on the left side."""
        return len(self._adj_left)

    @property
    def num_right(self) -> int:
        """Number of vertices on the right side."""
        return len(self._adj_right)

    @property
    def num_vertices(self) -> int:
        """Total number of vertices, ``|L| + |R|``."""
        return len(self._adj_left) + len(self._adj_right)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every vertex or edge added or removed.

        Caches that key a derived artifact on the graph *object* compare
        it to tell an unchanged graph from one mutated in place.
        """
        return self._version

    @property
    def density(self) -> float:
        """Edge density ``|E| / (|L| * |R|)``; zero for an empty side."""
        if not self._adj_left or not self._adj_right:
            return 0.0
        return self._num_edges / (len(self._adj_left) * len(self._adj_right))

    def has_left_vertex(self, u: Vertex) -> bool:
        """Return ``True`` if ``u`` is a left-side vertex."""
        return u in self._adj_left

    def has_right_vertex(self, v: Vertex) -> bool:
        """Return ``True`` if ``v`` is a right-side vertex."""
        return v in self._adj_right

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is present."""
        neighbours = self._adj_left.get(u)
        return neighbours is not None and v in neighbours

    def neighbors_left(self, u: Vertex) -> Set[Vertex]:
        """Right-side neighbours of the left vertex ``u`` (the live set).

        The returned set is the internal adjacency set; callers that mutate
        it must copy it first.  Algorithms in this library only read it
        (membership tests and set intersections), which is why the live set
        is exposed: copying on every call would dominate the running time
        of the branch-and-bound solvers.
        """
        try:
            return self._adj_left[u]
        except KeyError:
            raise VertexNotFoundError(LEFT, u) from None

    def neighbors_right(self, v: Vertex) -> Set[Vertex]:
        """Left-side neighbours of the right vertex ``v`` (the live set)."""
        try:
            return self._adj_right[v]
        except KeyError:
            raise VertexNotFoundError(RIGHT, v) from None

    def degree_left(self, u: Vertex) -> int:
        """Degree of the left vertex ``u``."""
        return len(self.neighbors_left(u))

    def degree_right(self, v: Vertex) -> int:
        """Degree of the right vertex ``v``."""
        return len(self.neighbors_right(v))

    def max_degree(self) -> int:
        """Maximum degree over all vertices (``0`` for an edgeless graph)."""
        best = 0
        for neighbours in self._adj_left.values():
            if len(neighbours) > best:
                best = len(neighbours)
        for neighbours in self._adj_right.values():
            if len(neighbours) > best:
                best = len(neighbours)
        return best

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(left, right)`` pairs."""
        for u, neighbours in self._adj_left.items():
            for v in neighbours:
                yield (u, v)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "BipartiteGraph":
        """Return a deep copy of the graph (labels are shared, sets are not)."""
        clone = BipartiteGraph()
        clone._adj_left = {u: set(nbrs) for u, nbrs in self._adj_left.items()}
        clone._adj_right = {v: set(nbrs) for v, nbrs in self._adj_right.items()}
        clone._num_edges = self._num_edges
        return clone

    def induced_subgraph(
        self,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
    ) -> "BipartiteGraph":
        """Return the subgraph induced by the given vertex subsets.

        Vertices that are not present in the graph are silently ignored so
        that candidate sets produced by reductions can be passed directly.
        """
        left_set = {u for u in left if u in self._adj_left}
        right_set = {v for v in right if v in self._adj_right}
        sub = BipartiteGraph(left=left_set, right=right_set)
        # Iterate over the smaller side to keep the construction cheap when
        # the paper's vertex-centred subgraphs are tiny slices of a big graph.
        if len(left_set) <= len(right_set):
            for u in left_set:
                for v in self._adj_left[u] & right_set:
                    sub.add_edge(u, v)
        else:
            for v in right_set:
                for u in self._adj_right[v] & left_set:
                    sub.add_edge(u, v)
        return sub

    def to_edge_list(self) -> list[Edge]:
        """Return a sorted list of edges, useful for deterministic output."""
        return sorted(self.edges(), key=lambda e: (repr(e[0]), repr(e[1])))

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Tuple[str, Vertex]) -> bool:
        """Membership test for a ``(side, label)`` pair."""
        side, label = vertex
        if side == LEFT:
            return label in self._adj_left
        if side == RIGHT:
            return label in self._adj_right
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self._adj_left == other._adj_left
            and self._adj_right == other._adj_right
        )

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|L|={self.num_left}, |R|={self.num_right}, "
            f"|E|={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "BipartiteGraph":
        """Build a graph from an iterable of ``(left, right)`` pairs."""
        return cls(edges=edges)

    @classmethod
    def from_biadjacency(cls, matrix: Iterable[Iterable[int]]) -> "BipartiteGraph":
        """Build a graph from a 0/1 biadjacency matrix.

        Row ``i`` becomes left vertex ``i`` and column ``j`` becomes right
        vertex ``j``.  Any truthy entry is treated as an edge, so NumPy
        arrays and plain nested lists both work.
        """
        graph = cls()
        n_cols = 0
        rows = [list(row) for row in matrix]
        for row in rows:
            n_cols = max(n_cols, len(row))
        for i in range(len(rows)):
            graph.add_left_vertex(i, exist_ok=True)
        for j in range(n_cols):
            graph.add_right_vertex(j, exist_ok=True)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if entry:
                    graph.add_edge(i, j)
        return graph

    def to_biadjacency(
        self,
    ) -> Tuple[list[list[int]], list[Vertex], list[Vertex]]:
        """Return ``(matrix, left_order, right_order)`` for the graph.

        The orders are sorted by ``repr`` so the output is deterministic for
        mixed label types.
        """
        left_order = sorted(self._adj_left, key=repr)
        right_order = sorted(self._adj_right, key=repr)
        col_index = {v: j for j, v in enumerate(right_order)}
        matrix = [[0] * len(right_order) for _ in left_order]
        for i, u in enumerate(left_order):
            row = matrix[i]
            for v in self._adj_left[u]:
                row[col_index[v]] = 1
        return matrix, left_order, right_order


def common_neighbors_of_left(graph: BipartiteGraph, vertices: Iterable[Vertex]) -> FrozenSet[Vertex]:
    """Right-side vertices adjacent to *every* left vertex in ``vertices``.

    The empty input is, by convention, adjacent to the whole right side —
    this matches the biclique-extension semantics used by the solvers.
    """
    iterator = iter(vertices)
    try:
        first = next(iterator)
    except StopIteration:
        return frozenset(graph.right)
    result = set(graph.neighbors_left(first))
    for u in iterator:
        result &= graph.neighbors_left(u)
        if not result:
            break
    return frozenset(result)


def common_neighbors_of_right(graph: BipartiteGraph, vertices: Iterable[Vertex]) -> FrozenSet[Vertex]:
    """Left-side vertices adjacent to *every* right vertex in ``vertices``."""
    iterator = iter(vertices)
    try:
        first = next(iterator)
    except StopIteration:
        return frozenset(graph.left)
    result = set(graph.neighbors_right(first))
    for v in iterator:
        result &= graph.neighbors_right(v)
        if not result:
            break
    return frozenset(result)
