"""Algorithm 1: ``Deg-Res-Sampling(d1, d2, s)`` (paper §3.1).

Maintains all A-vertex degrees; the moment a vertex's degree reaches
``d1`` it becomes a reservoir *candidate*. The reservoir keeps the ``s``
candidates with the smallest priority ``_priority(seed, v)``, a
deterministic uniform(0,1) hash of the vertex (bottom-``s`` sampling).
Priorities are i.i.d. uniform, so after ``x`` candidates the reservoir
is a uniform ``s``-subset of them, as with the paper's ``Coin(s/x)``
plus uniform eviction; and a vertex leaves the reservoir only when ``s``
smaller priorities have arrived, so it never returns. For every vertex
in the reservoir the next up-to-``d2`` incident edges are collected (the
triggering edge included, so a vertex of final degree ``deg`` yields
``min(d2, deg - d1 + 1)`` neighbors).

Because a priority depends only on ``(seed, v)``, disjoint substreams
can run their own reservoirs and be merged by keeping the ``s``
smallest priorities: that is how ``insertion_only.run_distributed``
executes this kernel on Spark partitions and gets the sequential answer
bit for bit.

The per-batch implementation is vectorised: running degrees via a
grouped cumulative count shared by all runs over one degree array
(:func:`insertion_batch`), then a sequential pass over only the (rare)
candidate events, then vectorised edge collection for current reservoir
members. Semantics are exactly the paper's per-edge loop — batching is
an execution detail, and ``tests/test_deg_res_sampling.py`` asserts
batch-size invariance.
"""
from __future__ import annotations

import heapq
from typing import Optional

import numpy as np
import pandas as pd

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_SEED = np.uint64(0xD1B54A32D192ED03)
_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)


def _priority(seed: int, v: np.ndarray) -> np.ndarray:
    """Deterministic uniform[0,1) priority per (seed, vertex).

    splitmix64 finaliser of ``seed·K + (v+1)·γ``: the same on every
    machine and partition, which is what makes the bottom-k merge exact.
    """
    with np.errstate(over="ignore"):  # wrapping uint64 mul is the mix
        z = (np.asarray(v, dtype=np.uint64) + np.uint64(1)) * _SPLITMIX_GAMMA
        z += np.uint64(seed) * _SPLITMIX_SEED
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_C1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_C2
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def insertion_batch(deg: np.ndarray, runs: list, batch: pd.DataFrame) -> None:
    """Algorithm 1's batch step for all ``runs`` over one degree array.

    Hands each run (via ``run.ingest``) the rows whose running degree
    hits its ``d1``, then adds the batch to ``deg``.
    """
    if (batch["op"].to_numpy() != 1).any():
        raise ValueError("Deg-Res-Sampling handles insertion-only streams")
    a = batch["a"].to_numpy()
    b = batch["b"].to_numpy()
    bad = (a < 0) | (a >= len(deg))
    if bad.any():
        raise ValueError(f"vertex a={a[bad][0]} out of range 0 <= a < n={len(deg)}")
    occ = pd.Series(a).groupby(a).cumcount().to_numpy()
    new_deg = deg[a] + occ + 1
    for run in runs:
        run.ingest(a, b, np.flatnonzero(new_deg == run.d1))
    np.add.at(deg, a, 1)


class DegResSampling:
    """One run of Algorithm 1 over the canonical edge stream.

    Parameters
    ----------
    n : number of A-vertices (degree-array size).
    d1 : degree threshold at which a vertex becomes a candidate.
    d2 : number of incident edges to collect per sampled vertex.
    s : reservoir size.
    seed : key of the priority hash ``_priority(seed, v)``.
    shared_degrees : optional externally-maintained degree array; when
        given, this run neither stores nor updates degrees itself
        (Algorithm 2 shares one degree array across its ``c`` runs) and
        the owner of the array feeds it through :func:`insertion_batch`.
    """

    def __init__(
        self,
        n: int,
        d1: int,
        d2: int,
        s: int,
        seed: int = 0,
        shared_degrees: np.ndarray | None = None,
    ) -> None:
        if d1 < 1 or d2 < 1 or s < 1:
            raise ValueError("d1, d2, s must be >= 1")
        self.n = n
        self.d1 = d1
        self.d2 = d2
        self.s = s
        self.seed = seed
        self._own_deg = shared_degrees is None
        self.deg = np.zeros(n, dtype=np.int64) if self._own_deg else shared_degrees
        self.x = 0  # candidates seen so far (paper's x)
        # Max-heap of (-priority, -v): the root is the member to evict.
        self._heap: list[tuple[float, int]] = []
        self.collected: dict[int, list[int]] = {}  # vertex -> collected b's
        self.peak_collected = 0

    # ------------------------------------------------------------------ #

    def process_batch(self, batch: pd.DataFrame) -> None:
        """Standalone use: consume a micro-batch (insertion-only)."""
        if not self._own_deg:
            raise RuntimeError("shared degrees: the owner feeds this run")
        insertion_batch(self.deg, [self], batch)

    def ingest(self, a: np.ndarray, b: np.ndarray, cand_rows: np.ndarray) -> None:
        """Core per-batch step given precomputed candidate rows.

        ``cand_rows`` are batch row indices where a vertex's running
        degree hits ``d1`` exactly, in stream order.
        """
        cand_v = a[cand_rows]
        prios = _priority(self.seed, cand_v)
        enter_row: dict[int, int] = {}
        for i, v, p in zip(cand_rows.tolist(), cand_v.tolist(), prios.tolist()):
            self.x += 1
            if self.admit(v, p):
                enter_row[v] = i
        # Vectorised collection for current members only: evicted
        # vertices' edges were discarded anyway (paper line 12).
        if not self.collected:
            return
        r_arr = np.fromiter(self.collected, dtype=np.int64, count=len(self.collected))
        rows = np.flatnonzero(np.isin(a, r_arr))
        if len(rows) == 0:
            return
        sub = pd.DataFrame({"row": rows, "a": a[rows], "b": b[rows]})
        for v, grp in sub.groupby("a", sort=False):
            v = int(v)
            have = self.collected[v]
            need = self.d2 - len(have)
            if need <= 0:
                continue
            lo = enter_row.get(v, -1)
            take = grp[grp["row"] >= lo].head(need)
            have.extend(int(x) for x in take["b"].tolist())
        self.peak_collected = max(
            self.peak_collected, sum(len(v) for v in self.collected.values())
        )

    def admit(self, v: int, p: float) -> bool:
        """Offer candidate ``v`` with priority ``p`` to the reservoir.

        Keeps the ``s`` smallest ``(p, v)``: a full reservoir evicts its
        largest member (and that member's edges) when ``v`` is smaller.
        Returns whether ``v`` got in; it starts with no collected edges.
        """
        key = (-p, -v)
        if len(self._heap) < self.s:
            heapq.heappush(self._heap, key)
        elif key > self._heap[0]:
            del self.collected[-heapq.heapreplace(self._heap, key)[1]]
        else:
            return False
        self.collected[v] = []
        return True

    # ------------------------------------------------------------------ #

    @property
    def reservoir(self) -> list[int]:
        return list(self.collected)

    def neighborhoods(self) -> dict[int, list[int]]:
        """All collected (possibly partial) neighborhoods."""
        return {v: list(bs) for v, bs in self.collected.items()}

    def _full(self, v: int) -> bool:
        """``v`` holds ``d2`` distinct witnesses: streams must be simple, and
        a repeated edge is detected (it counts once), not rejected."""
        return len(set(self.collected[v])) >= self.d2

    def succeeded(self) -> bool:
        """Paper's success: some stored neighborhood reached size ``d2``."""
        return any(self._full(v) for v in self.collected)

    def best(self) -> Optional[tuple[float, int]]:
        """``(priority, v)`` of the smallest-priority full neighborhood."""
        full = [(-neg_p, -neg_v) for neg_p, neg_v in self._heap if self._full(-neg_v)]
        return min(full, default=None)

    def result(self) -> Optional[tuple[int, set[int]]]:
        """The size-``d2`` neighborhood of smallest priority; None=fail.

        A member's priority is independent of its degree, so this is a
        uniform pick among the full neighborhoods, and a deterministic
        one: repeated calls give the same answer.
        """
        pick = self.best()
        if pick is None:
            return None
        return pick[1], set(self.collected[pick[1]])

    def space_words(self) -> int:
        own = self.n if self._own_deg else 0
        return own + len(self._heap) + sum(len(v) for v in self.collected.values()) + 2
