"""Algorithm 2: one-pass c-approximation for insertion-only streams (§3.2).

Runs ``Deg-Res-Sampling(max(1, i*d/c), d/c, s)`` for ``i = 0..c-1`` in
parallel over one shared degree array, with ``s = ceil(n^{1/c} ln n)``
(Theorem 3.2). If the input contains an A-vertex of degree ``>= d``, at
least one run finds a neighborhood of size ``d/c`` w.p. ``>= 1 - 1/n``.

Two execution modes of the same kernel (:class:`DegResSampling`):

- :class:`InsertionOnlyND` — the sequential processor
  (``repro.streamsim.runner.StreamProcessor``), semantics exactly the
  paper's.
- :func:`run_distributed` — the stream is hash-partitioned on the
  A-vertex (Catalyst), each partition runs :class:`InsertionOnlyND` on
  its substream, and the driver keeps the global ``s`` smallest
  priorities per run. A reservoir is bottom-``s`` over a per-vertex
  priority hash, so a vertex in the global bottom-``s`` was in its
  partition's bottom-``s`` from its candidate edge onward, and its
  collected edges are the sequential ones. The answer equals the
  sequential processor's for every partition count.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.deg_res_sampling import DegResSampling, _priority, insertion_batch
from repro.space import reservoir_size


def run_thresholds(d: int, c: int) -> list[int]:
    """The ``c`` candidate thresholds ``max(1, i*d/c)``, ``i=0..c-1``."""
    return [max(1, (i * d) // c) for i in range(c)]


def algorithm2_runs(
    deg: np.ndarray, d: int, c: int, seed: int, s: int
) -> list[DegResSampling]:
    """Algorithm 2's ``c`` runs over the shared degree array ``deg``."""
    d_c = max(1, d // c)
    return [
        DegResSampling(len(deg), d1, d_c, s, seed=seed * 1000 + i, shared_degrees=deg)
        for i, d1 in enumerate(run_thresholds(d, c))
    ]


class InsertionOnlyND:
    """Sequential Algorithm 2 (one shared degree array across runs)."""

    def __init__(
        self, n: int, d: int, c: int, seed: int = 0, s: int | None = None
    ) -> None:
        if c < 1:
            raise ValueError("c must be >= 1")
        self.n, self.d, self.c = n, d, c
        self.d_c = max(1, d // c)
        self.s = reservoir_size(n, c) if s is None else s
        self.deg = np.zeros(n, dtype=np.int64)
        self.runs = algorithm2_runs(self.deg, d, c, seed, self.s)

    def process_batch(self, batch: pd.DataFrame) -> None:
        insertion_batch(self.deg, self.runs, batch)

    def result(self) -> Optional[tuple[int, set[int]]]:
        """The full neighborhood of smallest priority over all runs.

        A function of the state alone: repeated calls, a restored
        checkpoint and :func:`run_distributed` give the same answer.
        """
        picks = [(pick, i) for i, r in enumerate(self.runs) if (pick := r.best())]
        return self.runs[min(picks)[1]].result() if picks else None

    def succeeded(self) -> bool:
        return any(r.succeeded() for r in self.runs)

    def space_words(self) -> int:
        return self.n + sum(r.space_words() for r in self.runs)


# ---------------------------------------------------------------------- #
# Distributed variant
# ---------------------------------------------------------------------- #


def _partition_pass(
    pdf: pd.DataFrame, n: int, d: int, c: int, seed: int, s: int
) -> pd.DataFrame:
    """One partition's Algorithm 2 (runs inside Spark).

    Emits one row ``(run, v, b)`` per collected edge plus one row
    ``(run, -1, x)`` per run carrying the partition's candidate count.
    Degrees are exact: every edge of a vertex lands in this partition.
    """
    proc = InsertionOnlyND(n, d, c, seed, s)
    proc.process_batch(pdf.sort_values("pos", kind="stable"))
    out_run, out_v, out_b = [], [], []
    for i, run in enumerate(proc.runs):
        for v, bs in run.collected.items():
            out_run += [i] * len(bs)
            out_v += [v] * len(bs)
            out_b += bs
        out_run.append(i)
        out_v.append(-1)
        out_b.append(run.x)
    return pd.DataFrame({"run": out_run, "v": out_v, "b": out_b}).astype(
        {"run": "int32", "v": "int64", "b": "int64"}
    )


def run_distributed(
    df: DataFrame,
    n: int,
    d: int,
    c: int,
    seed: int = 0,
    num_partitions: int = 16,
    s: int | None = None,
) -> dict:
    """Distributed Algorithm 2 over a Spark edge stream.

    Returns ``{"result": (a, set_b) | None, "per_run": {...},
    "space_words": int}``, equal to sequential :class:`InsertionOnlyND`
    with the same seed. Space counts the *global* state an equivalent
    coordinated deployment holds: n degree words + per-run reservoir and
    collected edges after the merge.
    """
    proc = InsertionOnlyND(n, d, c, seed, s)
    parts = (
        df.withColumn("pid", F.pmod(F.col("a"), F.lit(num_partitions)))
        .groupBy("pid")
        .applyInPandas(
            lambda pdf: _partition_pass(pdf, n, d, c, seed, proc.s),
            schema="run int, v long, b long",
        )
        .toPandas()
    )
    per_run: dict[int, dict] = {}
    total_words = n
    for i, run in enumerate(proc.runs):
        sub = parts[parts["run"] == i]
        run.x = int(sub.loc[sub["v"] < 0, "b"].sum())
        edges = sub[sub["v"] >= 0]
        vs = edges["v"].unique()
        for v, p in zip(vs.tolist(), _priority(run.seed, vs).tolist()):
            run.admit(v, p)
        kept = edges[edges["v"].isin(list(run.collected))]
        for v, bs in kept.groupby("v", sort=False)["b"]:
            run.collected[int(v)] = bs.tolist()
        nbrs = {v: set(bs) for v, bs in run.collected.items()}
        full = {v: bs for v, bs in nbrs.items() if len(bs) >= run.d2}
        per_run[i] = {"x": run.x, "members": nbrs, "full": full}
        total_words += len(nbrs) + sum(len(bs) for bs in nbrs.values())
    return {"result": proc.result(), "per_run": per_run, "space_words": total_words}
