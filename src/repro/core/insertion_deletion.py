"""Algorithm 3: one-pass c-approximation for insertion-deletion streams (§5).

Two l0-sketch strategies run in parallel (``x = max(n/c, sqrt(n))``):

- **Vertex sampling** — pre-sample ``~x ln n`` A-vertices; for each,
  ``~(d/c) ln n`` l0 samplers over its incident-edge vector (dim m).
  Wins when there are ``>= n/x`` vertices of degree ``>= d/c``
  (Lemma 5.2).
- **Edge sampling** — ``~(nd/c)(1/x + 1/c) ln(nm)`` l0 samplers over
  the whole edge vector (dim n*m). Wins otherwise: few heavy vertices
  means few total edges, so a Delta-degree vertex owns a large fraction
  of them (Lemma 5.3).

Output: any stored neighborhood of size ``>= d/c``, else fail.

The paper's constant ``10`` in the sampler counts is a proof artifact;
the ``c0_*`` multipliers below default to 1.0 and EXPERIMENTS.md
records the choice (shape, not constants, is what reproduces).

Sketches are linear, so the whole state is mergeable; process_batch
order is irrelevant — which is exactly why this algorithm survives
deletions where Algorithm 2's degree counting does not.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.l0_sampler import _P, L0SamplerBank


class InsertionDeletionND:
    """Sequential/mergeable Algorithm 3 processor."""

    def __init__(
        self,
        n: int,
        m: int,
        d: int,
        c: int,
        seed: int = 0,
        c0_vertex: float = 1.0,
        c0_per_vertex: float = 1.0,
        c0_edge: float = 1.0,
    ) -> None:
        if c < 1:
            raise ValueError("c must be >= 1")
        if n * m >= _P:
            raise ValueError(
                f"n*m = {n}*{m} = {n * m} edge coordinates exceed the edge "
                f"bank's cap: n*m must be < 2^31 - 1 = {_P}"
            )
        self.n, self.m, self.d, self.c = n, m, d, c
        self.d_c = max(1, d // c)
        self.x = max(n / c, math.sqrt(n))
        ln_n = math.log(max(n, 3))
        ln_nm = math.log(max(n * m, 3))
        rng = np.random.default_rng(seed)
        n_sampled = min(n, math.ceil(c0_vertex * self.x * ln_n))
        self.sampled_vertices = np.sort(rng.choice(n, size=n_sampled, replace=False))
        self.k_v = max(1, math.ceil(c0_per_vertex * (d / c) * ln_n))
        self._v_row = {int(v): i for i, v in enumerate(self.sampled_vertices)}
        self.vertex_bank = L0SamplerBank(n_sampled * self.k_v, dim=m, seed=seed + 1)
        self.k_e = max(
            1,
            math.ceil(c0_edge * (n * d / c) * (1 / self.x + 1 / c) * ln_nm),
        )
        self.edge_bank = L0SamplerBank(self.k_e, dim=n * m, seed=seed + 2)

    # ------------------------------------------------------------------ #

    def process_batch(self, batch: pd.DataFrame) -> None:
        a = batch["a"].to_numpy(np.int64)
        b = batch["b"].to_numpy(np.int64)
        op = batch["op"].to_numpy(np.int64)
        self.edge_bank.update(a * self.m + b, op)
        mask = np.isin(a, self.sampled_vertices)
        if mask.any():
            sub = pd.DataFrame({"a": a[mask], "b": b[mask], "op": op[mask]})
            for v, grp in sub.groupby("a", sort=False):
                r0 = self._v_row[int(v)] * self.k_v
                self.vertex_bank.update(
                    grp["b"].to_numpy(np.int64),
                    grp["op"].to_numpy(np.int64),
                    rows=slice(r0, r0 + self.k_v),
                )

    # ------------------------------------------------------------------ #

    def neighborhoods(self) -> dict[int, set[int]]:
        """Distinct recovered edges grouped by A-vertex, both strategies."""
        nbrs: dict[int, set[int]] = {}
        rec_v = self.vertex_bank.sample_all()
        for slot, coord in enumerate(rec_v):
            if coord < 0:
                continue
            v = int(self.sampled_vertices[slot // self.k_v])
            nbrs.setdefault(v, set()).add(int(coord))
        rec_e = self.edge_bank.sample_all()
        for coord in rec_e:
            if coord < 0:
                continue
            nbrs.setdefault(int(coord // self.m), set()).add(int(coord % self.m))
        return nbrs

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Largest stored neighborhood if it reaches ``d/c``, else None."""
        nbrs = self.neighborhoods()
        if not nbrs:
            return None
        v, bs = max(nbrs.items(), key=lambda kv: (len(kv[1]), -kv[0]))
        if len(bs) < self.d_c:
            return None
        return v, bs

    def succeeded(self) -> bool:
        return self.result() is not None

    def space_words(self) -> int:
        return (
            self.vertex_bank.space_words()
            + self.edge_bank.space_words()
            + len(self.sampled_vertices)
        )

    def merge(self, other: "InsertionDeletionND") -> "InsertionDeletionND":
        """Combine states built on disjoint substreams (linearity)."""
        self.vertex_bank.merge(other.vertex_bank)
        self.edge_bank.merge(other.edge_bank)
        return self
