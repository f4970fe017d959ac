"""Star Detection via Neighborhood Detection (Corollaries 3.3 and 5.5).

Given a *general* graph stream, run the Neighborhood Detection
algorithm for geometric guesses ``Delta' in {1, (1+eps), (1+eps)^2, ...}``
of the unknown max degree on the bipartite double cover (every edge
``uv`` becomes the two directed edges ``(u,v)`` and ``(v,u)``). The run
with the largest guess ``<= Delta`` finds, w.h.p., a star of size
``>= Delta / ((1+eps) c)``; the output is the largest neighborhood any
run found.

``c = ceil(log2 n)`` with constant ``eps`` gives the paper's
``O(log n)``-approximation semi-streaming algorithm (insertion-only);
swapping the inner algorithm for :class:`InsertionDeletionND` gives the
turnstile ``O(sqrt n)``-approximation of Corollary 5.5.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.deg_res_sampling import insertion_batch
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.insertion_only import algorithm2_runs
from repro.space import reservoir_size


def delta_guesses(n: int, eps: float = 1.0) -> list[int]:
    """Geometric degree guesses ``{1, (1+eps), ...}`` up to ``n``."""
    out, g = [], 1.0
    while g < n:
        v = int(round(g))
        if not out or v > out[-1]:
            out.append(v)
        g *= 1 + eps
    return out


def double_cover(batch: pd.DataFrame, u_col: str = "u", v_col: str = "v") -> pd.DataFrame:
    """Bipartite double cover of a general-graph micro-batch.

    Each undirected edge yields ``(u,v)`` and ``(v,u)`` adjacent in the
    stream order (positions ``2*pos`` and ``2*pos + 1``).
    """
    u = batch[u_col].to_numpy(np.int64)
    v = batch[v_col].to_numpy(np.int64)
    pos = batch["pos"].to_numpy(np.int64)
    a = np.empty(2 * len(batch), dtype=np.int64)
    b = np.empty_like(a)
    p = np.empty_like(a)
    a[0::2], a[1::2] = u, v
    b[0::2], b[1::2] = v, u
    p[0::2], p[1::2] = 2 * pos, 2 * pos + 1
    op = np.ones_like(a, dtype=np.int32)
    if "op" in batch.columns:
        op[0::2] = op[1::2] = batch["op"].to_numpy(np.int32)
    return pd.DataFrame({"pos": p, "a": a, "b": b, "op": op})


class StarDetection:
    """Semi-streaming Star Detection on general-graph streams.

    Parameters: ``c`` approximation of the inner ND algorithm (defaults
    to ``ceil(log2 n)`` per Corollary 3.3), ``eps`` guess granularity,
    ``model`` either ``"insertion_only"`` or ``"turnstile"``.
    """

    def __init__(
        self,
        n: int,
        c: int | None = None,
        eps: float = 1.0,
        seed: int = 0,
        model: str = "insertion_only",
    ) -> None:
        self.n = n
        self.c = c if c is not None else max(2, math.ceil(math.log2(max(n, 4))))
        self.eps = eps
        self.guesses = delta_guesses(n, eps)
        if model == "insertion_only":
            # Degrees depend only on the stream: one array serves every guess.
            self.deg = np.zeros(n, dtype=np.int64)
            s = reservoir_size(n, self.c)
            self.runs = [
                run
                for g in self.guesses
                for run in algorithm2_runs(self.deg, g, self.c, seed + 17 * g, s)
            ]
        elif model == "turnstile":
            self.deg = None
            self.runs = [
                InsertionDeletionND(n, m=n, d=g, c=self.c, seed=seed + 17 * g)
                for g in self.guesses
            ]
        else:
            raise ValueError(f"unknown model {model!r}")

    def process_batch(self, batch: pd.DataFrame) -> None:
        doubled = double_cover(batch)
        if self.deg is None:
            for run in self.runs:
                run.process_batch(doubled)
        else:
            insertion_batch(self.deg, self.runs, doubled)

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Largest nonempty neighborhood stored by any run of any guess."""
        best: Optional[tuple[int, set[int]]] = None
        for run in self.runs:
            for v, bs in run.neighborhoods().items():
                bs = set(bs)
                if bs and (best is None or len(bs) > len(best[1])):
                    best = (v, bs)
        return best

    def space_words(self) -> int:
        own = 0 if self.deg is None else self.n
        return own + sum(r.space_words() for r in self.runs)
