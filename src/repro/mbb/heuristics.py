"""Greedy heuristics and the ``hMBB`` stage (Algorithm 5).

The sparse framework separates heuristics from exhaustive search: a cheap
but effective heuristic finds a large balanced biclique first, the graph is
shrunk with the core-based reduction of Lemma 4, and — when the incumbent
already matches the degeneracy bound of Lemma 5 — the search terminates
without any exhaustive stage at all (the "S1" rows of Table 5).

Two greedy seeds are provided, following the paper: the global maximum
*degree* and the maximum *core number*.  Both feed the same greedy
extension routine, which grows the lagging side of the biclique by the
candidate that preserves the most opposite-side candidates.

The greedy extension and the core-seeded heuristic also exist in a
mask-native form (:func:`greedy_extend_bits` / :func:`core_heuristic_bits`)
operating on :class:`~repro.graph.bitset.IndexedBitGraph` rows; the
bridging stage runs its per-subgraph local heuristic through them so S2
never falls back to hash sets.  Both forms break ties identically (lowest
``repr``-ordered vertex wins), so the two kernels trace the same greedy
extensions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph, core_numbers_masks, iter_bits
from repro.graph.buffers import buffer_view
from repro.graph.prepared import PreparedGraph, ensure_prepared_for
from repro.cores.core import core_numbers
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.result import Biclique

VertexKey = Tuple[str, Vertex]


def greedy_extend(
    graph: BipartiteGraph,
    seed_side: str,
    seed_vertex: Vertex,
) -> Biclique:
    """Greedily grow a balanced biclique around a seed vertex.

    Starting from ``A = {seed}`` the routine alternately extends the
    lagging side, always choosing the candidate that keeps the largest
    number of candidates alive on the other side.  This is the standard
    maximum-degree greedy rule the paper uses inside ``hMBB``; it runs in
    ``O(d^2)`` around the seed where ``d`` is the seed's degree, so seeding
    it from a handful of top vertices stays near-linear overall.
    """
    if seed_side == LEFT:
        a = {seed_vertex}
        b: set = set()
        cb = set(graph.neighbors_left(seed_vertex))
        ca: set = set()
        for v in cb:
            ca.update(graph.neighbors_right(v))
        ca.discard(seed_vertex)
    else:
        b = {seed_vertex}
        a = set()
        ca = set(graph.neighbors_right(seed_vertex))
        cb = set()
        for u in ca:
            cb.update(graph.neighbors_left(u))
        cb.discard(seed_vertex)

    while True:
        extend_left = len(a) <= len(b)
        if extend_left:
            candidates, others = ca, cb
        else:
            candidates, others = cb, ca
        if not candidates:
            # Cannot extend the lagging side any further; try the other side
            # only if it is the lagging one next iteration (it will not be),
            # so stop.
            break
        best_vertex = None
        best_kept = -1
        best_repr = ""
        # Ties break on the smallest ``repr`` so the choice is deterministic
        # across interpreter runs (set order is hash order for string
        # labels) and identical to the bitset variant's index-order scan —
        # a single pass, no sorted copy of the candidate set per step.
        for vertex in candidates:
            if extend_left:
                kept = len(graph.neighbors_left(vertex) & others)
            else:
                kept = len(graph.neighbors_right(vertex) & others)
            if kept < best_kept:
                continue
            vertex_repr = repr(vertex)
            if kept > best_kept or vertex_repr < best_repr:
                best_kept = kept
                best_vertex = vertex
                best_repr = vertex_repr
        if best_vertex is None:
            break
        if extend_left:
            a.add(best_vertex)
            ca.discard(best_vertex)
            cb &= graph.neighbors_left(best_vertex)
        else:
            b.add(best_vertex)
            cb.discard(best_vertex)
            ca &= graph.neighbors_right(best_vertex)
    return Biclique.of(a, b).balanced()


def greedy_extend_bits(
    graph: IndexedBitGraph,
    seed_side: str,
    seed_index: int,
) -> Biclique:
    """Mask-native :func:`greedy_extend` over an :class:`IndexedBitGraph`.

    Same greedy rule, same tie-breaking (ascending index order equals
    ascending ``repr`` order of the labels), but candidate bookkeeping is
    four integer masks and "kept candidates" is one ``&``/``bit_count``
    per scanned vertex.  Used by the bridging stage's local heuristic.
    """
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    if seed_side == LEFT:
        a = 1 << seed_index
        b = 0
        cb = adj_left[seed_index]
        ca = 0
        for j in iter_bits(cb):
            ca |= adj_right[j]
        ca &= ~a
    else:
        b = 1 << seed_index
        a = 0
        ca = adj_right[seed_index]
        cb = 0
        for i in iter_bits(ca):
            cb |= adj_left[i]
        cb &= ~b

    while True:
        extend_left = a.bit_count() <= b.bit_count()
        if extend_left:
            candidates, others, adj = ca, cb, adj_left
        else:
            candidates, others, adj = cb, ca, adj_right
        if not candidates:
            break
        best_bit = 0
        best_neighbours = 0
        best_kept = -1
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            neighbours = adj[low.bit_length() - 1] & others
            kept = neighbours.bit_count()
            if kept > best_kept:
                best_kept = kept
                best_bit = low
                best_neighbours = neighbours
        if extend_left:
            a |= best_bit
            ca &= ~best_bit
            cb = best_neighbours
        else:
            b |= best_bit
            cb &= ~best_bit
            ca = best_neighbours
    return Biclique.of(
        graph.left_labels_of(a), graph.right_labels_of(b)
    ).balanced()


def _top_vertices(
    graph: BipartiteGraph,
    score: Callable[[str, Vertex], float],
    top_r: int,
) -> Iterable[Tuple[str, Vertex]]:
    """The ``top_r`` vertices of the graph ranked by ``score`` (descending)."""
    keys = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())
    keys.sort(key=lambda key: (-score(*key), key[0], repr(key[1])))
    return keys[:top_r]


def _top_ids(prepared: PreparedGraph, score: Sequence[int], top_r: int) -> List[VertexKey]:
    """The keys of the ``top_r`` dense ids ranked by descending ``score``.

    Ties go to the smallest id.  Ids are assigned in ``(side,
    repr(label))`` order, so this is :func:`_top_vertices`' ranking
    without building a ``repr`` per vertex or sorting them all.
    """
    keys = prepared.csr.keys
    ids = heapq.nsmallest(
        top_r, range(len(keys)), key=lambda i: (-score[i], i)
    )
    return [keys[i] for i in ids]


def _extend_seeds(
    graph: BipartiteGraph,
    seeds: Iterable[Tuple[str, Vertex]],
    context: Optional[SearchContext],
) -> Biclique:
    """The best greedy extension over ``seeds``, offering each to ``context``."""
    best = Biclique.empty()
    for side, label in seeds:
        if context is not None:
            context.checkpoint()
        candidate = greedy_extend(graph, side, label)
        if candidate.side_size > best.side_size:
            best = candidate
        if context is not None:
            context.offer_biclique(candidate)
    return best


def degree_heuristic(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    context: Optional[SearchContext] = None,
    prepared: Optional[PreparedGraph] = None,
) -> Biclique:
    """Maximum-degree seeded greedy balanced biclique (first half of hMBB).

    Seeds are the ``top_r`` vertices by ``(-degree, side, repr(label))``,
    ranked over the dense ids of ``prepared`` (a bundle of exactly
    ``graph``; one is prepared when omitted).

    When ``context`` is given, :meth:`~repro.mbb.context.SearchContext.
    checkpoint` is polled before every seed extension so engine deadlines
    and cancellation hooks cut the heuristic stage short, and every seed's
    result is offered to the incumbent as soon as it is found — work done
    by completed seeds survives an abort on a later one.
    """
    if prepared is None:
        prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    indptr = buffer_view(prepared.csr.indptr)
    degrees = [indptr[i + 1] - indptr[i] for i in range(len(indptr) - 1)]
    return _extend_seeds(graph, _top_ids(prepared, degrees, top_r), context)


def core_heuristic(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    cores: Optional[Dict[VertexKey, int]] = None,
    context: Optional[SearchContext] = None,
    prepared: Optional[PreparedGraph] = None,
) -> Biclique:
    """Maximum-core-number seeded greedy balanced biclique (second half of hMBB).

    Seeds are the ``top_r`` vertices by ``(-core, side, repr(label))``.
    With ``prepared`` (a bundle of exactly ``graph``; S1 passes its
    Lemma 4 residual) they are ranked by :meth:`PreparedGraph.core_numbers`
    over dense ids; otherwise by the label-keyed ``cores`` (computed with
    :func:`repro.cores.core.core_numbers` when omitted), which is how the
    sets kernel's bridging stage calls it.
    """
    if prepared is not None:
        ensure_prepared_for(prepared, graph)
        seeds = _top_ids(prepared, prepared.core_numbers(), top_r)
    else:
        if cores is None:
            cores = core_numbers(graph)

        def score(side: str, label: Vertex) -> float:
            return cores.get((side, label), 0)

        seeds = _top_vertices(graph, score, top_r)
    return _extend_seeds(graph, seeds, context)


def core_heuristic_bits(
    graph: IndexedBitGraph,
    *,
    top_r: int = 5,
    cores: Optional[Tuple[List[int], List[int]]] = None,
) -> Biclique:
    """Mask-native :func:`core_heuristic` over a whole :class:`IndexedBitGraph`.

    ``cores`` is the ``(core_left, core_right)`` pair produced by
    :func:`~repro.graph.bitset.core_numbers_masks`; passing the pair the
    caller already computed for its degeneracy test avoids a second peel.
    Seeds are ranked exactly like the set-based version — descending core
    number, left side first, then ``repr`` of the label — so both kernels
    extend the same seeds.
    """
    if cores is None:
        cores = core_numbers_masks(graph)
    core_left, core_right = cores
    # A bitgraph's indices are already ``repr``-sorted per side and the
    # side markers compare as "L" < "R", so ``(-core, side, index)`` ranks
    # exactly like the set-based ``(-score, side, repr(label))`` key
    # without building a repr string per vertex.
    keys = [(-core, LEFT, i) for i, core in enumerate(core_left)]
    keys.extend((-core, RIGHT, j) for j, core in enumerate(core_right))
    keys.sort()
    best = Biclique.empty()
    for _, side, index in keys[:top_r]:
        candidate = greedy_extend_bits(graph, side, index)
        if candidate.side_size > best.side_size:
            best = candidate
    return best


@dataclass
class HMBBOutcome:
    """Result of the heuristic-and-reduction stage (Algorithm 5)."""

    best: Biclique
    #: The bundle of the residual graph left by the Lemma 4 reductions
    #: (the input's own bundle when nothing was removed).
    residual: PreparedGraph
    proven_optimal: bool

    @property
    def reduced_graph(self) -> BipartiteGraph:
        """The residual graph after the core-based reductions."""
        return self.residual.graph

    @property
    def exhausted(self) -> bool:
        """True when the reduction removed the entire residual graph."""
        return self.reduced_graph.num_vertices == 0


def h_mbb(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    context: Optional[SearchContext] = None,
    prepared: Optional[PreparedGraph] = None,
) -> HMBBOutcome:
    """Algorithm 5: heuristics, Lemma 4 reductions and Lemma 5 early exit.

    Returns the best balanced biclique found, the residual graph after the
    core-based reductions, and whether the Lemma 5 condition already proves
    the incumbent optimal.

    Lemma 5 states that a balanced biclique with side size ``k`` forces
    degeneracy at least ``k``, so ``δ(G) <= |A*|`` certifies the incumbent
    ``(A*, B*)`` optimal.  Crucially the degeneracy must be taken on the
    graph *before* it is shrunk to the ``(best_side + 1)``-core: a nonempty
    ``(k + 1)``-core always has degeneracy at least ``k + 1``, so comparing
    the post-reduction degeneracy against ``best_side`` (as an earlier
    revision of this function did) can never succeed and the early exit was
    dead code.  With the pre-reduction comparison, S1 can terminate the
    whole search while the residual graph is still nonempty.

    The whole stage reads one array: the core numbers of ``prepared`` (a
    bundle of exactly ``graph``, prepared here when omitted), from one
    flat peel memoised on the bundle.  Lemma 5's degeneracy is their
    maximum; each Lemma 4 residual is :meth:`PreparedGraph.core_residual`,
    the vertices with core number ``>= best + 1``; and the core
    heuristic's seed ranking and its second Lemma 5 test use the same
    numbers restricted to the residual.  That restriction is exact: the
    ``j``-cores of a graph are nested, so for a vertex with core number
    ``c >= k`` the ``c``-core of ``G`` lies inside the ``k``-core and the
    vertex keeps core number ``c`` there, while no subgraph of ``G`` can
    give it more.  Degree seeds are ranked from the bundle's ``indptr``.

    Budgets are enforced: every greedy seed polls ``context.checkpoint()``,
    so an engine deadline or cancellation hook stops the stage between two
    seed extensions.  On abort the incumbent found so far is returned with
    ``proven_optimal=False`` and ``context.aborted`` set — callers such as
    :func:`repro.mbb.sparse.hbv_mbb` report ``optimal=False`` from it.
    """
    if prepared is None:
        prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    if context is None:
        context = SearchContext()
    try:
        return _h_mbb(prepared, top_r, context)
    except SearchAborted:
        return HMBBOutcome(context.best, prepared, False)


def _h_mbb(
    prepared: PreparedGraph, top_r: int, context: SearchContext
) -> HMBBOutcome:
    """Budget-unaware body of :func:`h_mbb` (checkpoints may raise)."""
    # Degree-based heuristic; Lemma 5 check on the *input* graph.
    graph = prepared.graph
    best = degree_heuristic(graph, top_r=top_r, context=context, prepared=prepared)
    context.offer_biclique(best)
    context.stats.heuristic_side = max(
        context.stats.heuristic_side, context.best_side
    )
    degeneracy = max(prepared.core_numbers(), default=0)
    if context.best_side > 0 and degeneracy <= context.best_side:
        return HMBBOutcome(context.best, prepared, True)
    with context.timed_stat("prepare_seconds"):
        reduced = prepared.core_residual(context.best_side + 1)
    if reduced.graph.num_vertices == 0:
        return HMBBOutcome(context.best, reduced, True)

    # Core-based heuristic on the reduced graph; Lemma 5 check against the
    # degeneracy of that (pre-second-reduction) graph, then reduce again.
    # The heuristic offers its seeds to the context as it goes, so an
    # improvement is detected by comparing side sizes, not by the offer.
    side_before = context.best_side
    improved = core_heuristic(
        reduced.graph, top_r=top_r, context=context, prepared=reduced
    )
    context.offer_biclique(improved)
    if context.best_side > side_before:
        context.stats.heuristic_side = max(
            context.stats.heuristic_side, context.best_side
        )
        if max(reduced.core_numbers(), default=0) <= context.best_side:
            return HMBBOutcome(context.best, reduced, True)
        # The k-cores are nested, so the residual's own (best + 1)-core
        # is the input's: derive it from the input bundle.
        with context.timed_stat("prepare_seconds"):
            reduced = prepared.core_residual(context.best_side + 1)
        if reduced.graph.num_vertices == 0:
            return HMBBOutcome(context.best, reduced, True)

    return HMBBOutcome(context.best, reduced, False)
