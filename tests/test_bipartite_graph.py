"""Unit tests for the BipartiteGraph data structure."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DuplicateVertexError,
    InvalidEdgeError,
    VertexNotFoundError,
)
from repro.graph.bipartite import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    common_neighbors_of_left,
    common_neighbors_of_right,
)
from repro.graph.validation import check_consistent


class TestConstruction:
    def test_empty_graph_has_no_vertices_or_edges(self, empty_graph):
        assert empty_graph.num_left == 0
        assert empty_graph.num_right == 0
        assert empty_graph.num_edges == 0
        assert empty_graph.num_vertices == 0
        assert empty_graph.density == 0.0

    def test_constructor_with_vertices_only(self):
        graph = BipartiteGraph(left=[1, 2], right=["a"])
        assert graph.left == {1, 2}
        assert graph.right == {"a"}
        assert graph.num_edges == 0

    def test_constructor_with_edges_creates_endpoints(self):
        graph = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        assert graph.left == {1, 2}
        assert graph.right == {"a", "b"}
        assert graph.num_edges == 2

    def test_from_edges_classmethod(self):
        graph = BipartiteGraph.from_edges([(1, 2), (1, 3)])
        assert graph.num_left == 1
        assert graph.num_right == 2

    def test_sides_have_independent_label_spaces(self):
        graph = BipartiteGraph(edges=[(0, 0)])
        assert graph.has_left_vertex(0)
        assert graph.has_right_vertex(0)
        assert graph.num_vertices == 2

    def test_duplicate_left_vertex_raises(self):
        graph = BipartiteGraph(left=[1])
        with pytest.raises(DuplicateVertexError):
            graph.add_left_vertex(1)

    def test_duplicate_right_vertex_raises_without_exist_ok(self):
        graph = BipartiteGraph(right=["x"])
        with pytest.raises(DuplicateVertexError):
            graph.add_right_vertex("x")
        graph.add_right_vertex("x", exist_ok=True)  # no error

    def test_repr_mentions_sizes(self, k33):
        assert "3" in repr(k33)


class TestEdges:
    def test_add_edge_is_idempotent(self):
        graph = BipartiteGraph()
        graph.add_edge(1, "a")
        graph.add_edge(1, "a")
        assert graph.num_edges == 1

    def test_has_edge(self, single_edge):
        assert single_edge.has_edge(0, 0)
        assert not single_edge.has_edge(0, 1)
        assert not single_edge.has_edge(99, 0)

    def test_remove_edge(self):
        graph = BipartiteGraph(edges=[(1, "a"), (1, "b")])
        graph.remove_edge(1, "a")
        assert not graph.has_edge(1, "a")
        assert graph.has_edge(1, "b")
        assert graph.num_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = BipartiteGraph(edges=[(1, "a")], right=["b"])
        with pytest.raises(InvalidEdgeError):
            graph.remove_edge(1, "b")

    def test_remove_edge_with_missing_endpoint_raises(self):
        graph = BipartiteGraph(edges=[(1, "a")])
        with pytest.raises(VertexNotFoundError):
            graph.remove_edge(99, "a")
        with pytest.raises(VertexNotFoundError):
            graph.remove_edge(1, "zz")

    def test_edges_iterator_yields_left_right_pairs(self, k33):
        edges = list(k33.edges())
        assert len(edges) == 9
        assert all(k33.has_left_vertex(u) and k33.has_right_vertex(v) for u, v in edges)

    def test_to_edge_list_is_sorted_and_deterministic(self):
        graph = BipartiteGraph(edges=[(2, "b"), (1, "a"), (2, "a")])
        assert graph.to_edge_list() == sorted(graph.to_edge_list(), key=lambda e: (repr(e[0]), repr(e[1])))

    def test_version_counts_every_mutation_and_no_no_op(self):
        graph = BipartiteGraph(edges=[(1, "a")])
        versions = [graph.version]
        graph.add_edge(1, "a")  # already present: content unchanged
        graph.add_left_vertex(1, exist_ok=True)
        assert graph.version == versions[-1]
        for mutate in (
            lambda: graph.add_edge(1, "b"),
            lambda: graph.add_left_vertex(2),
            lambda: graph.add_right_vertex("c"),
            lambda: graph.remove_edge(1, "b"),
            lambda: graph.remove_left_vertex(2),
            lambda: graph.remove_right_vertex("c"),
        ):
            mutate()
            assert graph.version > versions[-1]
            versions.append(graph.version)


class TestVertexRemoval:
    def test_remove_left_vertex_drops_incident_edges(self, k33):
        k33.remove_left_vertex(0)
        assert k33.num_left == 2
        assert k33.num_edges == 6
        check_consistent(k33)

    def test_remove_right_vertex_drops_incident_edges(self, k33):
        k33.remove_right_vertex(2)
        assert k33.num_right == 2
        assert k33.num_edges == 6
        check_consistent(k33)

    def test_remove_missing_vertex_raises(self, k33):
        with pytest.raises(VertexNotFoundError):
            k33.remove_left_vertex(42)
        with pytest.raises(VertexNotFoundError):
            k33.remove_right_vertex(42)

    def test_remove_vertices_bulk_ignores_missing(self, k33):
        k33.remove_vertices(left=[0, 99], right=[1])
        assert k33.num_left == 2
        assert k33.num_right == 2
        check_consistent(k33)


class TestQueries:
    def test_degrees(self, k33):
        assert all(k33.degree_left(u) == 3 for u in k33.left_vertices())
        assert all(k33.degree_right(v) == 3 for v in k33.right_vertices())
        assert k33.max_degree() == 3

    def test_degree_of_missing_vertex_raises(self, k33):
        with pytest.raises(VertexNotFoundError):
            k33.degree_left(10)
        with pytest.raises(VertexNotFoundError):
            k33.degree_right(10)

    def test_density_of_complete_graph_is_one(self, k33):
        assert k33.density == pytest.approx(1.0)

    def test_density_partial(self):
        graph = BipartiteGraph(left=[0, 1], right=[0, 1], edges=[(0, 0)])
        assert graph.density == pytest.approx(0.25)

    def test_contains_side_label_pairs(self, single_edge):
        assert (LEFT, 0) in single_edge
        assert (RIGHT, 0) in single_edge
        assert (LEFT, 5) not in single_edge
        assert ("bogus", 0) not in single_edge

    def test_len_counts_all_vertices(self, k33):
        assert len(k33) == 6

    def test_equality(self):
        a = BipartiteGraph(edges=[(1, "x"), (2, "y")])
        b = BipartiteGraph(edges=[(2, "y"), (1, "x")])
        c = BipartiteGraph(edges=[(1, "x")])
        assert a == b
        assert a != c
        assert a != "not a graph"


class TestDerivedGraphs:
    def test_copy_is_independent(self, k33):
        clone = k33.copy()
        clone.remove_edge(0, 0)
        assert k33.has_edge(0, 0)
        assert not clone.has_edge(0, 0)
        check_consistent(clone)

    def test_induced_subgraph(self, k33):
        sub = k33.induced_subgraph([0, 1], [1])
        assert sub.left == {0, 1}
        assert sub.right == {1}
        assert sub.num_edges == 2

    def test_induced_subgraph_ignores_missing_vertices(self, k33):
        sub = k33.induced_subgraph([0, 77], [1, 88])
        assert sub.left == {0}
        assert sub.right == {1}

    def test_induced_subgraph_empty_selection(self, k33):
        sub = k33.induced_subgraph([], [])
        assert sub.num_vertices == 0

    def test_biadjacency_round_trip(self):
        matrix = [[1, 0, 1], [0, 1, 0]]
        graph = BipartiteGraph.from_biadjacency(matrix)
        back, left_order, right_order = graph.to_biadjacency()
        assert back == matrix
        assert left_order == [0, 1]
        assert right_order == [0, 1, 2]

    def test_from_biadjacency_accepts_truthy_entries(self):
        graph = BipartiteGraph.from_biadjacency([[2, 0], [0, 0.5]])
        assert graph.has_edge(0, 0)
        assert graph.has_edge(1, 1)
        assert graph.num_edges == 2


class TestCommonNeighbors:
    def test_common_neighbors_of_left(self, k33):
        assert common_neighbors_of_left(k33, [0, 1]) == frozenset({0, 1, 2})

    def test_common_neighbors_of_left_empty_input_returns_all_right(self, k33):
        assert common_neighbors_of_left(k33, []) == frozenset(k33.right)

    def test_common_neighbors_of_right(self):
        graph = BipartiteGraph(edges=[(1, "a"), (2, "a"), (2, "b")])
        assert common_neighbors_of_right(graph, ["a", "b"]) == frozenset({2})

    def test_common_neighbors_shrinks_to_empty(self):
        graph = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        assert common_neighbors_of_left(graph, [1, 2]) == frozenset()
