"""PreparedGraph bundle, CSR subgraph generator and engine cache tests."""

from __future__ import annotations

import pytest

from repro.api import (
    GraphSpec,
    MBBEngine,
    PreparedGraphCache,
    SolveRequest,
    get_backend,
)
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.graph.prepared import PreparedGraph, graph_fingerprint
from repro.cores.bicore import (
    ALL_IMPLS,
    bicore_decomposition,
    bidegeneracy_order,
)
from repro.cores.orders import ALL_ORDERS, ORDER_BIDEGENERACY, search_order
from repro.mbb.bridge import bridge_mbb
from repro.mbb.context import SearchContext
from repro.mbb.sparse import hbv_mbb
from repro.mbb.vertex_centred import (
    iter_vertex_centred_subgraphs,
    iter_vertex_centred_subgraphs_csr,
    subgraph_density_profile,
    total_subgraph_size,
)


def mixed_label_graph(seed: int) -> BipartiteGraph:
    """A graph mixing int and str labels (and sharing labels across sides)."""
    base = random_bipartite(7, 7, 0.4, seed=seed)
    graph = BipartiteGraph()
    for u, v in base.edges():
        left = u if u % 2 == 0 else f"u{u}"
        right = v if v % 2 == 1 else f"v{v}"
        graph.add_edge(left, right)
    graph.add_left_vertex("lonely", exist_ok=True)
    graph.add_right_vertex(3, exist_ok=True)
    return graph


class TestPreparedGraph:
    def test_orders_match_unprepared_computation(self):
        for seed in range(4):
            graph = random_bipartite(9, 8, 0.35, seed=seed)
            prepared = PreparedGraph.prepare(graph)
            for order_name in ALL_ORDERS:
                assert prepared.search_order(order_name) == search_order(
                    graph, order_name
                )

    def test_orders_are_memoised(self):
        prepared = PreparedGraph.prepare(random_bipartite(6, 6, 0.5, seed=1))
        for order_name in ALL_ORDERS:
            assert prepared.search_order(order_name) is prepared.search_order(
                order_name
            )

    def test_search_order_prepared_delegation_returns_safe_copies(self):
        graph = random_bipartite(8, 8, 0.4, seed=2)
        prepared = PreparedGraph.prepare(graph)
        for order_name in ALL_ORDERS:
            public = search_order(graph, order_name, prepared=prepared)
            memoised = prepared.search_order(order_name)
            assert public == memoised
            # The public wrapper hands out a copy: mutating it must not
            # corrupt the snapshot (which outlives the call in the
            # engine cache).
            assert public is not memoised
            public.reverse()
            assert prepared.search_order(order_name) == memoised

    def test_cores_apis_reject_foreign_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=1)
        foreign = PreparedGraph.prepare(random_bipartite(6, 6, 0.4, seed=2))
        with pytest.raises(InvalidParameterError):
            bicore_decomposition(graph, prepared=foreign)
        with pytest.raises(InvalidParameterError):
            search_order(graph, ORDER_BIDEGENERACY, prepared=foreign)
        order = search_order(graph, ORDER_BIDEGENERACY)
        with pytest.raises(InvalidParameterError):
            total_subgraph_size(graph, order, prepared=foreign)
        with pytest.raises(InvalidParameterError):
            subgraph_density_profile(graph, order, prepared=foreign)

    def test_unknown_order_rejected(self):
        prepared = PreparedGraph.prepare(random_bipartite(4, 4, 0.5, seed=3))
        with pytest.raises(InvalidParameterError):
            prepared.search_order("zigzag")
        with pytest.raises(InvalidParameterError):
            search_order(prepared.graph, "zigzag", prepared=prepared)

    def test_bicore_decomposition_reuses_snapshot(self):
        graph = mixed_label_graph(seed=4)
        prepared = PreparedGraph.prepare(graph)
        plain = bicore_decomposition(graph)
        via_prepared = bicore_decomposition(graph, prepared=prepared)
        assert via_prepared == plain
        # The bundle memoises the decomposition; the public wrapper
        # hands out copies of it, so caller mutation cannot corrupt the
        # snapshot.
        assert (
            prepared.bicore_decomposition()
            is prepared.bicore_decomposition()
        )
        via_prepared[1].clear()
        assert bicore_decomposition(graph, prepared=prepared) == plain
        for impl in ALL_IMPLS:
            assert (
                bidegeneracy_order(graph, impl=impl, prepared=prepared)
                == plain[1]
            )

    def test_for_subgraph_returns_self_on_identical_shape(self):
        graph = random_bipartite(8, 8, 0.4, seed=5)
        prepared = PreparedGraph.prepare(graph)
        assert prepared.for_subgraph(graph.copy()) is prepared

    def test_for_subgraph_prepares_and_memoises_residuals(self):
        graph = random_bipartite(10, 10, 0.4, seed=6)
        prepared = PreparedGraph.prepare(graph)
        from repro.cores.core import k_core

        residual = k_core(graph, 2)
        assert residual.num_vertices < graph.num_vertices
        child = prepared.for_subgraph(residual)
        assert child is not prepared
        assert child.graph == residual
        # A content-equal residual from a later solve reuses the child.
        assert prepared.for_subgraph(k_core(graph, 2)) is child

    def test_for_subgraph_rejects_content_mismatch_same_shape(self):
        # A same-shape but different-content graph must not reuse the
        # memoised child (the equality check must fire).
        graph = BipartiteGraph(edges=[(1, "a"), (2, "b"), (3, "c")])
        prepared = PreparedGraph.prepare(graph)
        first = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        other = BipartiteGraph(edges=[(1, "a"), (3, "c")])
        child = prepared.for_subgraph(first)
        mismatched = prepared.for_subgraph(other)
        assert mismatched is not child
        assert mismatched.graph == other


class TestFingerprint:
    def test_insertion_order_invariance(self):
        edges = [(1, "a"), (2, "b"), (1, "b"), (3, "a")]
        forward = BipartiteGraph(edges=edges)
        backward = BipartiteGraph(edges=list(reversed(edges)))
        assert forward == backward
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_content_differences_change_the_digest(self):
        base = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        fewer = BipartiteGraph(edges=[(1, "a")])
        extra_vertex = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        extra_vertex.add_left_vertex(9)
        swapped = BipartiteGraph(edges=[(1, "b"), (2, "a")])
        digests = {
            graph_fingerprint(g)
            for g in (base, fewer, extra_vertex, swapped)
        }
        assert len(digests) == 4

    def test_mixed_label_types_fingerprint(self):
        a = mixed_label_graph(seed=7)
        b = mixed_label_graph(seed=7)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(mixed_label_graph(seed=8))


class TestCrossGeneratorProperty:
    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, order_name, seed):
        graph = random_bipartite(11, 9, 0.35, seed=seed)
        self._assert_identical_families(graph, order_name)

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_power_law_graphs(self, order_name, seed):
        graph = random_power_law_bipartite(30, 30, 3.0, seed=seed)
        self._assert_identical_families(graph, order_name)

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_label_graphs(self, order_name, seed):
        self._assert_identical_families(mixed_label_graph(seed), order_name)

    @staticmethod
    def _assert_identical_families(graph, order_name):
        prepared = PreparedGraph.prepare(graph)
        order = search_order(graph, order_name)
        label_family = list(iter_vertex_centred_subgraphs(graph, order))
        csr_family = list(iter_vertex_centred_subgraphs_csr(prepared, order))
        assert len(label_family) == len(csr_family) == graph.num_vertices
        for expected, actual in zip(label_family, csr_family, strict=True):
            assert actual.center == expected.center
            assert actual.position == expected.position
            assert actual.left_members == expected.left_members
            assert actual.right_members == expected.right_members

    def test_profiles_share_one_snapshot(self):
        graph = random_bipartite(10, 10, 0.3, seed=9)
        prepared = PreparedGraph.prepare(graph)
        order = search_order(graph, ORDER_BIDEGENERACY)
        labelled = list(iter_vertex_centred_subgraphs(graph, order))
        assert total_subgraph_size(graph, order, prepared=prepared) == sum(
            sub.size for sub in labelled
        )
        expected_profile = [
            sub.density
            for sub in labelled
            if sub.num_left and sub.num_right and sub.density > 0.0
        ]
        assert (
            subgraph_density_profile(graph, order, prepared=prepared)
            == expected_profile
        )


class TestBridgePrepared:
    def test_bridge_kernels_agree_from_one_snapshot(self):
        for seed in range(4):
            graph = random_power_law_bipartite(25, 25, 3.0, seed=seed)
            prepared = PreparedGraph.prepare(graph)
            order = prepared.search_order(ORDER_BIDEGENERACY)
            outcomes = {}
            for kernel in ("bits", "sets"):
                context = SearchContext()
                outcomes[kernel] = bridge_mbb(
                    graph,
                    context,
                    kernel=kernel,
                    total_order=order,
                    prepared=prepared,
                )
            bits, sets_ = outcomes["bits"], outcomes["sets"]
            assert [s.center for s in bits.surviving] == [
                s.center for s in sets_.surviving
            ]
            assert bits.best.side_size == sets_.best.side_size

    def test_bridge_rejects_mismatched_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=1)
        other = random_bipartite(6, 6, 0.4, seed=2)
        with pytest.raises(InvalidParameterError):
            bridge_mbb(
                graph,
                SearchContext(),
                prepared=PreparedGraph.prepare(other),
            )

    def test_bridge_rejects_same_shape_different_content_snapshot(self):
        # Same labels, same |E|, different edges: shape comparison alone
        # would wave this through and solve the wrong graph.
        graph = BipartiteGraph(edges=[(1, "a"), (2, "b"), (3, "c")])
        imposter = BipartiteGraph(edges=[(1, "b"), (2, "c"), (3, "a")])
        with pytest.raises(InvalidParameterError):
            bridge_mbb(
                graph,
                SearchContext(),
                prepared=PreparedGraph.prepare(imposter),
            )

    def test_hbv_rejects_foreign_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=3)
        other = random_bipartite(8, 8, 0.4, seed=4)
        with pytest.raises(InvalidParameterError):
            hbv_mbb(graph, prepared=PreparedGraph.prepare(other))

    def test_hbv_accepts_content_equal_snapshot_object(self):
        graph = random_bipartite(8, 8, 0.4, seed=5)
        prepared = PreparedGraph.prepare(graph.copy())
        assert (
            hbv_mbb(graph, prepared=prepared).side_size
            == hbv_mbb(graph).side_size
        )

    def test_hbv_accepts_prepared(self):
        for seed in range(3):
            graph = random_power_law_bipartite(30, 30, 3.0, seed=seed)
            plain = hbv_mbb(graph)
            prepped = hbv_mbb(graph, prepared=PreparedGraph.prepare(graph))
            assert prepped.side_size == plain.side_size
            assert prepped.biclique == plain.biclique


class TestPreparedGraphCache:
    def test_hit_returns_same_bundle(self):
        cache = PreparedGraphCache()
        graph = random_bipartite(8, 8, 0.5, seed=1)
        first, hit_first = cache.get(graph)
        second, hit_second = cache.get(graph.copy())
        assert not hit_first and hit_second
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_graphs_get_distinct_bundles(self):
        cache = PreparedGraphCache()
        a, _ = cache.get(random_bipartite(8, 8, 0.5, seed=1))
        b, _ = cache.get(random_bipartite(8, 8, 0.5, seed=2))
        assert a is not b
        assert a.graph != b.graph
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PreparedGraphCache(capacity=2)
        graphs = [random_bipartite(6, 6, 0.5, seed=s) for s in range(3)]
        first, _ = cache.get(graphs[0])
        cache.get(graphs[1])
        cache.get(graphs[2])  # evicts graphs[0]
        assert len(cache) == 2
        again, hit = cache.get(graphs[0])
        assert not hit and again is not first

    def test_lru_recency_is_updated_on_hit(self):
        cache = PreparedGraphCache(capacity=2)
        graphs = [random_bipartite(6, 6, 0.5, seed=s) for s in range(3)]
        kept, _ = cache.get(graphs[0])
        cache.get(graphs[1])
        cache.get(graphs[0])  # refresh recency: graphs[1] is now oldest
        cache.get(graphs[2])  # evicts graphs[1], not graphs[0]
        again, hit = cache.get(graphs[0])
        assert hit and again is kept

    def test_fingerprint_collision_never_leaks_state(self, monkeypatch):
        # Force every graph onto one cache key: the equality re-check
        # must detect the mismatch, re-prepare, and keep results correct.
        import repro.api.engine as engine_module

        monkeypatch.setattr(
            engine_module, "graph_fingerprint", lambda graph: "collision"
        )
        cache = PreparedGraphCache()
        graph_a = random_bipartite(8, 8, 0.5, seed=1)
        graph_b = random_bipartite(9, 7, 0.4, seed=2)
        prepared_a, hit_a = cache.get(graph_a)
        prepared_b, hit_b = cache.get(graph_b)
        assert not hit_a and not hit_b
        assert prepared_a.graph == graph_a
        assert prepared_b.graph == graph_b
        assert len(cache) == 1  # b overwrote the colliding entry
        # A re-request of the overwritten graph re-prepares, again
        # without leaking b's arrays.
        prepared_a2, hit_a2 = cache.get(graph_a)
        assert not hit_a2
        assert prepared_a2.graph == graph_a

    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            PreparedGraphCache(capacity=0)

    def test_same_graph_object_hits_without_refingerprinting(self, monkeypatch):
        import repro.api.engine as engine_module
        import repro.graph.prepared as prepared_module

        cache = PreparedGraphCache()
        graph = random_bipartite(8, 8, 0.5, seed=1)
        first, _ = cache.get(graph)

        def no_hashing(graph):
            raise AssertionError("content re-fingerprinted")

        monkeypatch.setattr(engine_module, "graph_fingerprint", no_hashing)
        monkeypatch.setattr(prepared_module, "graph_fingerprint", no_hashing)
        again, hit = cache.get(graph)
        assert hit and again is first
        assert cache.hits == 1 and cache.misses == 1
        # The miss handed its fingerprint to the bundle: no second hash.
        assert first.fingerprint == graph_fingerprint(graph.copy())

    def test_graph_mutated_in_place_is_not_an_identity_hit(self):
        cache = PreparedGraphCache()
        graph = random_bipartite(8, 8, 0.5, seed=1)
        first, _ = cache.get(graph)
        u = next(iter(graph.left_vertices()))
        v = next(iter(graph.neighbors_left(u)))
        graph.remove_edge(u, v)
        graph.add_edge(u, "fresh")
        second, hit = cache.get(graph)
        assert not hit and second is not first
        assert second.csr.num_vertices == first.csr.num_vertices + 1
        assert second.fingerprint == graph_fingerprint(graph)


class TestEngineCacheIntegration:
    def _request(self, seed=3):
        return SolveRequest(
            graph=GraphSpec.power_law(40, 40, 3.0, seed=seed), backend="sparse"
        )

    def test_second_solve_hits_cache_with_near_zero_prepare(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        cold = engine.solve(self._request())
        warm = engine.solve(self._request())
        assert cold.stats["prepared_cache_misses"] == 1
        assert cold.stats["prepared_cache_hits"] == 0
        assert warm.stats["prepared_cache_hits"] == 1
        assert warm.stats["prepared_cache_misses"] == 0
        # The memoised snapshot makes the warm solve's order free (only
        # the timer probe remains) and its prepare cost a cache probe.
        assert warm.stats["order_seconds"] < 0.005
        assert warm.stats["prepare_seconds"] < 0.05
        assert warm.side_size == cold.side_size
        assert warm.left == cold.left and warm.right == cold.right

    def test_cache_does_not_leak_across_graphs(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        reports = [
            engine.solve(self._request(seed)).side_size for seed in (1, 2, 1, 2)
        ]
        fresh = MBBEngine(prepared_cache=PreparedGraphCache())
        expected = [
            fresh.solve(self._request(seed)).side_size for seed in (1, 2)
        ]
        assert reports == [expected[0], expected[1], expected[0], expected[1]]

    def test_dense_backend_skips_the_cache(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        report = engine.solve(
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.8, seed=1), backend="dense"
            )
        )
        assert report.stats["prepared_cache_hits"] == 0
        assert report.stats["prepared_cache_misses"] == 0
        assert len(cache) == 0

    def test_auto_resolving_dense_skips_the_cache(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        report = engine.solve(
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.8, seed=1), backend="auto"
            )
        )
        assert report.backend == "dense"
        assert len(cache) == 0

    def test_supports_prepared_capability_is_declared(self):
        assert get_backend("sparse").info.supports_prepared
        assert get_backend("auto").info.supports_prepared
        assert not get_backend("dense").info.supports_prepared
