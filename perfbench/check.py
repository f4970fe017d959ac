"""Output checker: every answer is judged against the final graph.

Graph workloads: an answer ``(v, witnesses)`` is valid when ``v`` is an
item of the final graph and its witnesses are distinct, all in
``N_final(v)``, and at least ``d/c`` in number. A ``None`` answer is a
failure, because every generated instance is a promise instance.

witness-stream: the final per-item counts equal a pandas ``groupby``
oracle, and each item's buffer holds its earliest ``w`` witnesses.
"""
from __future__ import annotations

import pandas as pd

from repro.streamsim.stream import final_graph


def final_neighbors(stream: pd.DataFrame) -> dict[int, frozenset[int]]:
    """``N_final(v)`` for every item with at least one surviving edge."""
    g = final_graph(stream)
    return {int(v): frozenset(int(b) for b in bs) for v, bs in g.groupby("a")["b"]}


def check_neighborhood(answer, nbrs: dict[int, frozenset[int]], d_c: int) -> str | None:
    """Return why ``answer`` is invalid, or ``None`` when it is valid."""
    if answer is None:
        return "no answer on a promise instance"
    v, witnesses = answer
    witnesses = list(witnesses)
    if int(v) not in nbrs:
        return f"item {v} has no edge in the final graph"
    if len(set(witnesses)) != len(witnesses):
        return f"item {v}: repeated witnesses"
    outside = set(witnesses) - nbrs[int(v)]
    if outside:
        return f"item {v}: {len(outside)} witnesses are not final neighbours"
    if len(witnesses) < d_c:
        return f"item {v}: {len(witnesses)} witnesses < d/c = {d_c}"
    return None


def witness_oracle(events: pd.DataFrame, w: int) -> dict[int, tuple[int, list[int]]]:
    """Per item: exact count and the witnesses of its ``w`` earliest events."""
    ev = events.sort_values("ts", kind="stable")
    counts = ev.groupby("item").size()
    first = ev.groupby("item")["witness"].apply(lambda s: [int(x) for x in s.head(w)])
    return {int(k): (int(counts[k]), first[k]) for k in counts.index}


def check_witness_state(final: pd.DataFrame, oracle: dict) -> str | None:
    """Return why the operator's final state is wrong, or ``None``."""
    got = {
        int(r.item): (int(r.count), [int(x) for x in r.witnesses])
        for r in final.itertuples()
    }
    if got.keys() != oracle.keys():
        return f"{len(got.keys() ^ oracle.keys())} items differ from the oracle's"
    bad = [k for k in oracle if got[k] != oracle[k]]
    if bad:
        return f"{len(bad)} items have a wrong count or witness buffer (e.g. {bad[0]})"
    return None
