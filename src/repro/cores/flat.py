"""Flat core decomposition over a CSR snapshot.

The production core peel of the sparse framework: the linear-time bucket
peel of Batagelj and Zaveršnik ("An O(m) Algorithm for Cores
Decomposition of Networks", 2003) run over the dense ids and flat
``indptr``/``indices`` arrays of a :class:`~repro.graph.csr.CSRBipartite`
instead of the label-keyed adjacency sets of :mod:`repro.cores.core`.

One peel yields everything S1 (Algorithm 5) and the ``bd5`` ablation
read: the core number of every vertex (Lemma 5's degeneracy is their
maximum, each Lemma 4 residual is a threshold on them) and the peel's
own processing order, which is a degeneracy order.  The peel tracks
every vertex's *true* remaining degree, so each vertex is removed with
the minimum remaining degree of the graph left at that moment (the
smallest-last property :func:`repro.cores.core.degeneracy_order`
documents), and the core number of a vertex is the largest such minimum
seen up to its removal.

Both outputs are functions of the snapshot's content only.  Dense ids
are assigned by ``(side, repr(label))``, the buckets are plain lists
filled in id order and drained last-in first-out, so no step depends on
hash or set iteration order — unlike the label-keyed peel, whose
buckets are filled in dict order and, for string labels, change with
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graph.buffers import as_int_list
from repro.graph.csr import CSRBipartite


def flat_core_decomposition(csr: CSRBipartite) -> Tuple[List[int], List[int]]:
    """Core numbers by dense id and the smallest-last peel order of ids.

    Runs in ``O(|V| + |E|)``.  Each bucket ``d`` lists vertices whose
    remaining degree was ``d`` when they entered it; an entry whose
    vertex has since dropped lower (or was peeled) is stale and skipped
    on pop.  The scan pointer backs up by one after each removal, since
    a removal lowers each neighbour's degree by exactly one, so total
    pointer movement stays linear.  Ties pop the smallest id first
    among the initial bucket members and the most recently demoted
    vertex first after that.
    """
    n = csr.num_vertices
    indptr = as_int_list(csr.indptr)
    indices = as_int_list(csr.indices)
    degree = [indptr[i + 1] - indptr[i] for i in range(n)]
    buckets: List[List[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for vertex in range(n - 1, -1, -1):
        buckets[degree[vertex]].append(vertex)

    core = [0] * n
    order: List[int] = []
    current = 0
    pointer = 0
    for _ in range(n):
        while True:
            bucket = buckets[pointer]
            if not bucket:
                pointer += 1
                continue
            vertex = bucket.pop()
            if degree[vertex] == pointer:
                break
        # A peeled vertex gets degree -1: its stale entries never match a
        # bucket again and its neighbours' loops skip it.
        degree[vertex] = -1
        if pointer > current:
            current = pointer
        core[vertex] = current
        order.append(vertex)
        for neighbour in indices[indptr[vertex] : indptr[vertex + 1]]:
            d = degree[neighbour]
            if d > 0:
                d -= 1
                degree[neighbour] = d
                buckets[d].append(neighbour)
        if pointer:
            pointer -= 1
    return core, order
