"""From-scratch l0-sampler sketches (the paper's [32] substrate, §5).

An l0 sampler returns a (near-)uniform element of the support of the
vector described by an insert/delete stream. Construction (standard):

- geometric *level* assignment: a seeded hash maps each coordinate to a
  level ``G`` with ``P(G >= l) ~ 2^-l``; the coordinate contributes to
  every level ``<= G`` (nested subsampling),
- per level a 1-sparse recovery unit ``(S0, S1, S2) = (sum c_i,
  sum c_i * i, sum c_i * g(i) mod q)`` with an independent fingerprint
  hash ``g``; a unit holding exactly one support coordinate ``i*``
  satisfies ``S0 != 0``, ``S1/S0 = i*`` integral, and
  ``S2 = S0 * g(i*) mod q`` (a >=2-sparse unit passes only w.p. ~1/q),
- recovery scans levels sparsest-first and returns the first verifying
  unit's coordinate.

Everything is *linear* in the stream, so sketches merge by addition —
that is what lets Spark partitions build partial sketches independently
(:func:`sketch_stream_spark`) with the driver summing them, and what
makes deletions free.

``L0SamplerBank`` vectorises ``num`` independent samplers as
``(num, L)`` numpy accumulators; contributions are bucketed at the
assigned level and suffix-summed at query time (a coordinate at level
``G`` belongs to all levels ``<= G``).

``update`` first sums the deltas of repeated coordinates and drops
coordinates whose deltas cancel (an insert-then-delete pair), then
hashes every remaining coordinate against every sampler, in chunks of
about 64k (sampler, coordinate) cells so the temporaries fit in cache.
The level ``floor(-log2((h + 0.5) / P))`` of hash value ``h`` is read
off the float64 exponent of ``h`` as ``30 - floor(log2 h)`` (31 for
``h = 0``), with no ``log2`` call. Units accumulate through float64
``bincount``s, which are exact while ``sum |delta| * max(dim, Q) <
2^53``; ``update`` raises ``ValueError`` past that bound.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

_P = (1 << 31) - 1  # hash modulus (Mersenne prime)
_Q = (1 << 31) - 1  # fingerprint field


def _mod(z: np.ndarray, m: int | np.uint64) -> np.ndarray:
    """``z % m`` in place, for non-negative ``z``.

    numpy divides by a constant several times faster than it takes a
    remainder, so ``z - (z // m) * m`` beats ``np.remainder`` here.
    """
    q = z // m
    q *= m
    z -= q
    return z


def _fingerprint(a2: np.ndarray, b2: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-sampler NONLINEAR fingerprint hash ``g_j(i)``.

    A linear ``a2*i + b2`` would be useless here: for any unit,
    ``sum c_i * g(i) = S0 * g(S1/S0)`` holds identically whenever the
    divisibility test passes, so every >=2-sparse level would verify.
    We therefore pass the pairwise hash through a splitmix64 finaliser
    (wrapping uint64 arithmetic is part of the mix) before reducing to
    the fingerprint field.
    """
    z = a2 * idx
    z += b2
    z = _mod(z, _Q).view(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return _mod(z, np.uint64(_Q)).view(np.int64)


class L0SamplerBank:
    """``num`` independent l0 samplers over vectors of dimension ``dim``.

    Requires ``dim < 2^31`` so all hash arithmetic stays in exact int64.
    """

    def __init__(self, num: int, dim: int, seed: int = 0, levels: int | None = None):
        if dim >= _P:
            raise ValueError("dim must be < 2^31 - 1")
        self.num = num
        self.dim = dim
        self.seed = seed
        self.L = levels if levels is not None else max(2, int(np.ceil(np.log2(max(dim, 2)))) + 2)
        g = np.random.default_rng(seed)
        self.a1 = g.integers(1, _P, num, dtype=np.int64)
        self.b1 = g.integers(0, _P, num, dtype=np.int64)
        self.a2 = g.integers(1, _Q, num, dtype=np.int64)
        self.b2 = g.integers(0, _Q, num, dtype=np.int64)
        self.S0 = np.zeros((num, self.L), dtype=np.int64)
        self.S1 = np.zeros((num, self.L), dtype=np.int64)
        self.S2 = np.zeros((num, self.L), dtype=np.int64)

    # ------------------------------------------------------------------ #

    def update(
        self,
        idx: np.ndarray,
        delta: np.ndarray | int = 1,
        rows: slice | np.ndarray | None = None,
        chunk_cells: int = 65_536,
    ) -> None:
        """Apply ``vec[idx] += delta`` to the samplers in ``rows`` (all by
        default). Vectorised and chunked over samplers; a chunk hashes
        about ``chunk_cells`` (sampler, coordinate) cells, so its
        temporaries stay cache-sized.

        Raises ``ValueError`` on a coordinate outside ``[0, dim)`` and when
        a unit's float64 accumulation could stop being exact.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        delta = np.asarray(delta, dtype=np.int64)
        if (idx < 0).any() or (idx >= self.dim).any():
            raise ValueError("coordinate out of range")
        # The update is linear, so repeated coordinates are summed before
        # hashing and coordinates whose deltas cancel are dropped.
        idx, inv = np.unique(idx, return_inverse=True)
        summed = np.zeros(idx.size, dtype=np.int64)
        np.add.at(summed, inv, delta)
        keep = summed != 0
        idx, delta = idx[keep], summed[keep]
        if idx.size == 0:
            return
        # Units are summed in float64 bincounts, which are exact only while
        # every partial sum stays below 2^53; a unit's sum is at most
        # sum|delta| * max(dim, Q) in absolute value.
        if np.abs(delta.astype(np.float64)).sum() * max(self.dim, _Q) >= 2.0**53:
            raise ValueError(
                "sum of |delta| in one update is too large for exact float64 "
                "accumulation; split the update"
            )
        E = idx.size
        row_ids = np.arange(self.num, dtype=np.int64)[slice(None) if rows is None else rows]
        step = max(1, min(chunk_cells // E, row_ids.size))
        # The S0 and S1 weights of a cell do not depend on its sampler: lay
        # them out once for a full chunk of row-major (sampler, coordinate) cells.
        w01 = np.empty((2, step, E))
        w01[0] = delta
        w01[1] = delta * idx
        w0, w1 = w01[0].ravel(), w01[1].ravel()
        # Level G = min(L - 1, floor(-log2((h + 0.5) / P))). For 0 < h < P
        # that floor is 30 - floor(log2 h) = 1053 - e, where e is the biased
        # float64 exponent of h; h == 0 has e == 0 and level 31. So
        # G = 1053 - max(e, 1053 - min(L - 1, 31)), and the cell's bincount
        # slot is row * L + G.
        e_floor = 1053 - min(self.L - 1, 31)
        row_base = np.arange(step, dtype=np.int64)[:, None] * self.L + 1053
        for lo in range(0, row_ids.size, step):
            r = row_ids[lo : lo + step]
            nc = r.size
            h = self.a1[r][:, None] * idx
            h += self.b1[r][:, None]
            flat = _mod(h, _P).astype(np.float64).view(np.int64)
            flat >>= 52
            np.maximum(flat, e_floor, out=flat)
            np.subtract(row_base[:nc], flat, out=flat)
            flat = flat.ravel()
            gfp = _fingerprint(self.a2[r][:, None], self.b2[r][:, None], idx)
            minlen = nc * self.L
            c0 = np.bincount(flat, w0[: flat.size], minlen)
            c1 = np.bincount(flat, w1[: flat.size], minlen)
            c2 = np.bincount(flat, w0[: flat.size] * gfp.ravel(), minlen)
            self.S0[r] += c0.astype(np.int64).reshape(nc, self.L)
            self.S1[r] += c1.astype(np.int64).reshape(nc, self.L)
            self.S2[r] = (self.S2[r] + c2.astype(np.int64).reshape(nc, self.L)) % _Q

    # ------------------------------------------------------------------ #

    def sample_all(self) -> np.ndarray:
        """Recover one support coordinate per sampler (-1 on failure).

        Scans levels sparsest-first; a level verifies iff its suffix-
        summed unit is exactly 1-sparse (divisibility + fingerprint).
        """
        # suffix sums: level l aggregates buckets >= l
        s0 = np.flip(np.cumsum(np.flip(self.S0, 1), axis=1), 1)
        s1 = np.flip(np.cumsum(np.flip(self.S1, 1), axis=1), 1)
        s2 = np.flip(np.cumsum(np.flip(self.S2, 1).astype(np.int64), axis=1), 1) % _Q
        nz = s0 != 0
        safe = np.where(nz, s0, 1)
        i_star = s1 // safe
        ok = nz & (s1 % safe == 0) & (i_star >= 0) & (i_star < self.dim)
        g_at = _fingerprint(
            self.a2[:, None], self.b2[:, None], np.clip(i_star, 0, self.dim - 1)
        )
        fp_ok = ((s2 - (s0 % _Q) * g_at) % _Q) == 0
        ok &= fp_ok
        lvl = np.where(ok, np.arange(self.L)[None, :], -1).max(axis=1)
        out = np.full(self.num, -1, dtype=np.int64)
        hit = lvl >= 0
        out[hit] = i_star[hit, lvl[hit]]
        return out

    def merge(self, other: "L0SamplerBank") -> "L0SamplerBank":
        """In-place sketch addition (linearity). Seeds must match."""
        if (self.num, self.dim, self.seed, self.L) != (
            other.num,
            other.dim,
            other.seed,
            other.L,
        ):
            raise ValueError("cannot merge banks with different parameters")
        self.S0 += other.S0
        self.S1 += other.S1
        self.S2 = (self.S2 + other.S2) % _Q
        return self

    def space_words(self) -> int:
        return 3 * self.num * self.L + 4 * self.num


def sketch_stream_spark(df: DataFrame, make_bank, value_col: str = "op") -> L0SamplerBank:
    """Build a bank over a Spark stream via partial sketches.

    ``make_bank()`` must construct identically-seeded banks; each Spark
    partition sketches its rows (``mapInPandas``), the driver merges by
    addition. Rows need columns ``idx`` (coordinate) and ``value_col``
    (signed multiplicity delta).
    """

    def part(it):
        bank = make_bank()
        for pdf in it:
            if len(pdf):
                bank.update(
                    pdf["idx"].to_numpy(np.int64),
                    pdf[value_col].to_numpy(np.int64),
                )
        yield pd.DataFrame({"blob": [pickle.dumps(bank)]})

    parts = df.mapInPandas(part, schema="blob binary").collect()
    merged = make_bank()
    for row in parts:
        merged.merge(pickle.loads(row["blob"]))
    return merged
