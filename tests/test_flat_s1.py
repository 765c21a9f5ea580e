"""S1 on the flat engine: one CSR core peel, k-keyed residuals, bd5 order.

The label-keyed peel of :mod:`repro.cores.core` is the oracle throughout:
the flat peel must reproduce its core numbers, every derived residual
bundle must equal a fresh index of the label ``k_core``, and ``h_mbb``
must reach exactly the outcome of the label-keyed Algorithm 5 kept below
as :func:`reference_h_mbb`.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

import pytest

from repro.api import GraphSpec, MBBEngine, PreparedGraphCache, SolveRequest
from repro.cores import core as label_cores
from repro.cores import flat
from repro.cores.core import core_numbers, degeneracy, degeneracy_order, k_core
from repro.cores.orders import ORDER_DEGENERACY, search_order
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.buffers import as_int_list, available_backends, set_default_backend
from repro.graph.csr import CSRBipartite
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.graph.prepared import PreparedGraph
from repro.mbb.context import SearchContext
from repro.mbb.heuristics import greedy_extend, h_mbb
from repro.mbb.result import Biclique
from repro.mbb.sparse import hbv_mbb, variant
from repro.workloads.datasets import load_dataset


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_default_backend(None)


def mixed_label_graph(seed: int) -> BipartiteGraph:
    """Int and str labels mixed, with labels shared across the sides."""
    base = random_bipartite(12, 12, 0.35, seed=seed)
    graph = BipartiteGraph()
    for u, v in base.edges():
        graph.add_edge(u if u % 2 == 0 else f"u{u}", v if v % 2 == 1 else f"v{v}")
    return graph


def isolated_vertex_graph(seed: int) -> BipartiteGraph:
    """A random graph plus isolated vertices on both sides."""
    graph = random_bipartite(10, 9, 0.3, seed=seed)
    for i in range(3):
        graph.add_left_vertex(f"lonely-left-{i}", exist_ok=True)
        graph.add_right_vertex(f"lonely-right-{i}", exist_ok=True)
    return graph


def graph_family():
    """``(name, graph)`` pairs covering every shape the flat S1 must handle."""
    cases = [("empty", BipartiteGraph()), ("edgeless", BipartiteGraph(left=[1, 2], right=[1]))]
    for seed in range(4):
        cases.append((f"random-{seed}", random_bipartite(14, 11, 0.25 + 0.1 * seed, seed=seed)))
        cases.append(
            (f"power-law-{seed}", random_power_law_bipartite(60, 50, 4.0, seed=seed))
        )
        cases.append((f"mixed-{seed}", mixed_label_graph(seed)))
        cases.append((f"isolated-{seed}", isolated_vertex_graph(seed)))
    return cases


FAMILY = graph_family()
FAMILY_IDS = [name for name, _ in FAMILY]


# ----------------------------------------------------------------------
# the label-keyed reference of Algorithm 5
# ----------------------------------------------------------------------
def _reference_seeds(graph, score, top_r):
    keys = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())
    keys.sort(key=lambda key: (-score(key), key[0], repr(key[1])))
    return keys[:top_r]


def _reference_extend(graph, seeds, context):
    best = Biclique.empty()
    for side, label in seeds:
        candidate = greedy_extend(graph, side, label)
        if candidate.side_size > best.side_size:
            best = candidate
        context.offer_biclique(candidate)
    return best


def reference_h_mbb(graph, top_r, context):
    """Algorithm 5 on label-keyed adjacency sets with the label peel.

    ``(best, reduced_graph, proven_optimal)``: the pre-flat
    implementation, peeling the input twice and the residual once.
    """

    def degree(key):
        side, label = key
        return graph.degree_left(label) if side == LEFT else graph.degree_right(label)

    best = _reference_extend(graph, _reference_seeds(graph, degree, top_r), context)
    context.offer_biclique(best)
    context.stats.heuristic_side = max(context.stats.heuristic_side, context.best_side)
    if context.best_side > 0 and degeneracy(graph) <= context.best_side:
        return context.best, graph, True
    reduced = k_core(graph, context.best_side + 1)
    if reduced.num_vertices == 0:
        return context.best, reduced, True
    cores = core_numbers(reduced)
    side_before = context.best_side
    improved = _reference_extend(
        reduced, _reference_seeds(reduced, lambda key: cores.get(key, 0), top_r), context
    )
    context.offer_biclique(improved)
    if context.best_side > side_before:
        context.stats.heuristic_side = max(context.stats.heuristic_side, context.best_side)
        if max(cores.values(), default=0) <= context.best_side:
            return context.best, reduced, True
        reduced = k_core(reduced, context.best_side + 1)
        if reduced.num_vertices == 0:
            return context.best, reduced, True
    return context.best, reduced, False


def assert_smallest_last(graph: BipartiteGraph, order) -> None:
    """Each vertex has the minimum remaining degree when it is removed."""
    keys = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())
    assert sorted(order, key=repr) == sorted(keys, key=repr)
    remaining = {}
    for side, label in keys:
        remaining[(side, label)] = (
            graph.degree_left(label) if side == LEFT else graph.degree_right(label)
        )
    for side, label in order:
        assert remaining[(side, label)] == min(remaining.values())
        del remaining[(side, label)]
        neighbours = (
            [(RIGHT, v) for v in graph.neighbors_left(label)]
            if side == LEFT
            else [(LEFT, u) for u in graph.neighbors_right(label)]
        )
        for neighbour in neighbours:
            if neighbour in remaining:
                remaining[neighbour] -= 1


# ----------------------------------------------------------------------
# the flat peel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name,graph", FAMILY, ids=FAMILY_IDS)
class TestFlatPeel:
    def test_core_numbers_match_label_peel(self, backend, name, graph):
        set_default_backend(backend)
        prepared = PreparedGraph.prepare(graph)
        keys = prepared.csr.keys
        flat_cores = {keys[i]: value for i, value in enumerate(prepared.core_numbers())}
        assert flat_cores == core_numbers(graph)

    def test_peel_order_is_smallest_last(self, backend, name, graph):
        set_default_backend(backend)
        prepared = PreparedGraph.prepare(graph)
        order = prepared.search_order(ORDER_DEGENERACY)
        assert_smallest_last(graph, order)
        assert search_order(graph, ORDER_DEGENERACY) == order
        # The label-keyed order satisfies the same invariant; the two may
        # break ties differently.
        assert_smallest_last(graph, degeneracy_order(graph))

    def test_residual_equals_reindexed_k_core(self, backend, name, graph):
        set_default_backend(backend)
        prepared = PreparedGraph.prepare(graph)
        top = max(prepared.core_numbers(), default=0)
        for k in range(0, top + 2):
            child = prepared.core_residual(k)
            expected_graph = k_core(graph, k)
            expected = CSRBipartite.from_bipartite(expected_graph)
            assert child.graph == expected_graph
            assert child.csr.keys == expected.keys
            assert child.csr.num_left == expected.num_left
            assert as_int_list(child.csr.indptr) == as_int_list(expected.indptr)
            assert as_int_list(child.csr.indices) == as_int_list(expected.indices)
            # Inherited core numbers equal a fresh peel of the residual.
            child_keys = child.csr.keys
            assert {
                child_keys[i]: value for i, value in enumerate(child.core_numbers())
            } == core_numbers(expected_graph)

    def test_h_mbb_matches_label_reference(self, backend, name, graph):
        set_default_backend(backend)
        for top_r in (1, 3, 5):
            for seeded_side in (0, 1, 2):
                ours = SearchContext()
                theirs = SearchContext()
                if seeded_side:
                    # A caller-supplied incumbent moves the Lemma 4/5
                    # thresholds without any heuristic having found it.
                    seed = Biclique.of(
                        [f"seed-{i}" for i in range(seeded_side)],
                        [f"seed-{i}" for i in range(seeded_side)],
                    )
                    ours.offer_biclique(seed)
                    theirs.offer_biclique(seed)
                outcome = h_mbb(graph, top_r=top_r, context=ours)
                best, reduced, proven = reference_h_mbb(graph, top_r, theirs)
                assert outcome.best == best
                assert outcome.reduced_graph == reduced
                assert outcome.proven_optimal == proven
                assert ours.stats.heuristic_side == theirs.stats.heuristic_side


# ----------------------------------------------------------------------
# one peel per graph on the solve path
# ----------------------------------------------------------------------
class TestOnePeelPerGraph:
    def test_repeated_hbv_mbb_on_one_bundle_peels_once(self, monkeypatch):
        calls = []
        real = flat.flat_core_decomposition

        def counting(csr):
            calls.append(csr)
            return real(csr)

        monkeypatch.setattr(flat, "flat_core_decomposition", counting)
        graph = load_dataset("jester")
        prepared = PreparedGraph.prepare(graph)
        results = [hbv_mbb(graph, prepared=prepared) for _ in range(3)]
        assert len(calls) == 1
        assert len({(r.side_size, r.terminated_at) for r in results}) == 1
        # The bd1 path under a known incumbent reuses the same peel and
        # the same k-keyed residual.
        hbv_mbb(
            graph,
            config=variant("bd1"),
            prepared=prepared,
            initial_best=results[0].biclique,
        )
        assert len(calls) == 1

    def test_default_solve_never_runs_the_label_peel(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("label-keyed core peel on the default path")

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name in ("core_numbers", "k_core", "degeneracy", "degeneracy_order"):
                if getattr(module, name, None) is getattr(label_cores, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert hbv_mbb(load_dataset("jester")).side_size > 0
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = SolveRequest(
            graph=GraphSpec.power_law(300, 300, 4.0, seed=1), backend="sparse"
        )
        assert engine.solve(request).status == "ok"


# ----------------------------------------------------------------------
# bd5: the degeneracy order no longer follows hash order
# ----------------------------------------------------------------------
def string_labelled(name: str) -> BipartiteGraph:
    """A stand-in relabelled ``u{i}``/``v{j}``: hash order now varies by seed."""
    base = load_dataset(name)
    return BipartiteGraph(
        left=[f"u{u}" for u in base.left_vertices()],
        right=[f"v{v}" for v in base.right_vertices()],
        edges=[(f"u{u}", f"v{v}") for u, v in base.edges()],
    )


#: bd5 on the string-relabelled stand-ins: ``(side, terminated_at,
#: generated, pruned, searched, nodes)``.  With the label-keyed order
#: these flipped between S2 and S3 with ``PYTHONHASHSEED``; CI runs this
#: test under two hash seeds.
BD5_PINNED = {
    "jester": (12, "S2", 114, 114, 0, 0),
    "dbpedia-team": (8, "S2", 80, 80, 0, 0),
}


class TestBd5Determinism:
    @pytest.mark.parametrize("name", sorted(BD5_PINNED))
    def test_bd5_outcome_is_pinned_under_string_labels(self, name):
        result = hbv_mbb(string_labelled(name), config=variant("bd5"))
        stats = asdict(result.stats)
        assert (
            result.side_size,
            result.terminated_at,
            stats["subgraphs_generated"],
            stats["subgraphs_pruned"],
            stats["subgraphs_searched"],
            stats["nodes"],
        ) == BD5_PINNED[name]

    def test_degeneracy_order_ignores_insertion_order(self):
        graph = string_labelled("dbpedia-team")
        edges = sorted(graph.edges(), key=repr, reverse=True)
        shuffled = BipartiteGraph(
            left=sorted(graph.left_vertices(), reverse=True),
            right=sorted(graph.right_vertices(), reverse=True),
            edges=edges,
        )
        order = search_order(graph, ORDER_DEGENERACY)
        assert search_order(shuffled, ORDER_DEGENERACY) == order
        assert_smallest_last(graph, order)
