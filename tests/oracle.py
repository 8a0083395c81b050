"""A brute-force search oracle that shares no code with the pipeline.

For each query it routes itself: the centroid distances with einsum
(the index's Step 1 definition) and the ``nprobe`` cells of least
(distance, cell id) by ``lexsort``. It builds each probed cell's tables
with ``index.distance_tables_for``. Then it scores every live row of
those cells itself, ``sum_j tables[j, codes[:, j]]``, and keeps the
first ``k`` by (distance, id). A live row is a base row whose id no
tombstone names, or a row of the cell's delta segment. Nothing here
comes from the router, the planner, the scanners, the merger or the
overlay fold: ``tests/test_oracle.py`` pins this module's imports.
"""

import numpy as np


def adc(tables, codes):
    """Each row's ADC distance, summed over the components in order."""
    total = np.zeros(len(codes))
    for j in range(tables.shape[0]):
        total += tables[j, codes[:, j]]
    return total


def route(index, queries, nprobe):
    """``(b, nprobe)`` cells: each query's nearest coarse centroids by
    ``max((||x||^2 + ||c||^2) - 2<x, c>, 0)``, ties to the lower cell."""
    codebook = index.coarse.codebook
    x_sq = np.einsum("qd,qd->q", queries, queries)
    c_sq = np.einsum("id,id->i", codebook, codebook)
    dists = x_sq[:, None] + c_sq[None, :] - 2.0 * np.einsum("qd,id->qi", queries, codebook)
    np.maximum(dists, 0.0, out=dists)
    cells = np.broadcast_to(np.arange(len(codebook)), dists.shape)
    return np.lexsort((cells, dists), axis=1)[:, :nprobe]


def live_rows(index, pid, delta=None):
    """``[(codes, ids)]``: the rows of cell ``pid`` a search may return."""
    base = index.partitions[pid]
    if delta is None:
        return [(base.codes, base.ids)]
    alive = ~np.isin(base.ids, delta.tombstone_ids)
    rows = [(base.codes[alive], base.ids[alive])]
    if pid in delta.segments:
        rows.append((delta.segments[pid].codes, delta.segments[pid].ids))
    return rows


def oracle_search(index, queries, k, nprobe, delta=None):
    """``[(ids, distances)]``, one pair per row of ``queries``
    (``k=None`` keeps every live row it scored).

    ``delta`` is a :class:`~repro.delta.DeltaView` (its ``segments``
    and ``tombstone_ids``), or None for the base alone.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    answers = []
    for query, probed in zip(queries, route(index, queries, nprobe)):
        ids, dists = [np.empty(0, np.int64)], [np.empty(0)]
        for pid in probed.tolist():
            tables = index.distance_tables_for(query, pid)
            for codes, row_ids in live_rows(index, pid, delta):
                ids.append(row_ids)
                dists.append(adc(tables, codes))
        ids, dists = np.concatenate(ids), np.concatenate(dists)
        order = np.lexsort((ids, dists))[:k]
        answers.append((ids[order], dists[order]))
    return answers


def same_as_oracle(results, answers):
    """True when every result holds the oracle's ids and distances, byte
    for byte (dtypes too)."""
    return len(results) == len(answers) and all(
        got.ids.dtype == ids.dtype
        and got.distances.dtype == dists.dtype
        and got.ids.tobytes() == ids.tobytes()
        and got.distances.tobytes() == dists.tobytes()
        for got, (ids, dists) in zip(results, answers)
    )


def holds_oracle_distances(results, index, queries, nprobe, delta=None):
    """True when every returned id is a live row of a probed cell, at
    exactly the oracle's distance: the check for an approximate scanner,
    whose top-k may differ from the oracle's at the margin."""
    everything = oracle_search(index, queries, None, nprobe, delta)
    return len(results) == len(everything) and all(
        set(zip(got.ids.tolist(), got.distances.tolist()))
        <= set(zip(ids.tolist(), dists.tolist()))
        for got, (ids, dists) in zip(results, everything)
    )
