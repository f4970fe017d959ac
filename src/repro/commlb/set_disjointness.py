"""Multi-party Set-Disjointness and the Theorem 4.1 reduction.

``p`` parties hold sets ``S_i`` over a universe of size ``n`` that are
either pairwise disjoint or share exactly one common element. The
reduction: party ``i`` connects each ``u in S_i`` to its private block
of ``d/p`` B-vertices, so ``Delta = d/p`` in the disjoint case and
``Delta = d`` in the uniquely-intersecting case. Running a good-enough
Neighborhood Detection algorithm through the one-way protocol lets the
last party decide which case holds from the largest stored
neighborhood (``> d/p`` edges of one vertex can only exist if the sets
intersect). Validated constructively in Table 5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.commlb.protocol import simulate_one_way
from repro.core.insertion_only import InsertionOnlyND


@dataclass
class DisjInstance:
    p: int
    n: int
    sets: list[np.ndarray]
    intersecting: bool
    common: int | None


def make_instance(
    p: int, n: int, set_size: int, intersecting: bool, seed: int = 0
) -> DisjInstance:
    """Sample an instance honouring the promise (disjoint rests)."""
    if p * set_size > n:
        raise ValueError("universe too small for disjoint sets")
    g = np.random.default_rng(seed)
    perm = g.permutation(n)
    common = int(perm[-1]) if intersecting else None
    rest = perm[:-1] if intersecting else perm
    sz = set_size - 1 if intersecting else set_size
    sets = []
    for i in range(p):
        block = rest[i * sz : (i + 1) * sz]
        s = np.concatenate([block, [common]]) if intersecting else block
        sets.append(np.sort(s))
    return DisjInstance(p=p, n=n, sets=sets, intersecting=intersecting, common=common)


def party_stream(inst: DisjInstance, party: int, k: int) -> pd.DataFrame:
    """Party's edges: each element connects to its private k-block."""
    a = np.repeat(inst.sets[party], k)
    b = np.tile(np.arange(k) + party * k, len(inst.sets[party]))
    pdf = pd.DataFrame({"a": a, "b": b})
    pdf["pos"] = party * 10_000_000 + np.arange(len(pdf), dtype=np.int64)
    pdf["op"] = 1
    return pdf[["pos", "a", "b", "op"]].astype(
        {"pos": "int64", "a": "int64", "b": "int64", "op": "int32"}
    )


def max_stored_neighborhood(proc: InsertionOnlyND) -> int:
    """Largest neighborhood any run of Algorithm 2 holds."""
    return max(
        (len(bs) for r in proc.runs for bs in r.neighborhoods().values()), default=0
    )


def solve_with_algorithm(
    inst: DisjInstance, k: int, c: int, seed: int = 0
) -> dict:
    """Decide disjoint-vs-intersecting via the streaming algorithm.

    ``d = k * p``; the decision rule is ``max stored neighborhood > k``.
    Sound always (only real edges are stored); complete w.h.p. when
    ``c <= kp/(k+1)``.
    """
    d = k * inst.p
    streams = [party_stream(inst, i, k) for i in range(inst.p)]
    proc, max_msg = simulate_one_way(
        lambda: InsertionOnlyND(inst.n, d=d, c=c, seed=seed), streams
    )
    biggest = max_stored_neighborhood(proc)
    decision = biggest > k
    return {
        "decision_intersecting": decision,
        "correct": decision == inst.intersecting,
        "max_neighborhood": biggest,
        "max_msg_bytes": max_msg,
    }
