"""l0-sampler sketch: recovery, deletions, linearity, uniformity, Spark merge."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import synth_data
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.l0_sampler import L0SamplerBank, _fingerprint, sketch_stream_spark
from repro.streamsim.runner import run_stream_pandas

_P = (1 << 31) - 1
_Q = (1 << 31) - 1


def _reference_fingerprint(a2, b2, idx):
    z = ((a2 * idx + b2) % _Q).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(_Q)).astype(np.int64)


def _reference_update(self, idx, delta=1, rows=None, chunk_cells=4_000_000):
    """The dense kernel ``L0SamplerBank.update`` replaced: every sampler
    hashes every stream coordinate, levels come from float64 ``log2``.
    ``update`` must leave ``S0``/``S1``/``S2`` exactly as this does."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    if np.isscalar(delta):
        delta = np.full(idx.shape, delta, dtype=np.int64)
    else:
        delta = np.asarray(delta, dtype=np.int64)
    if (idx < 0).any() or (idx >= self.dim).any():
        raise ValueError("coordinate out of range")
    row_ids = (
        np.arange(self.num, dtype=np.int64)
        if rows is None
        else np.arange(self.num, dtype=np.int64)[rows]
    )
    E = idx.size
    step = max(1, chunk_cells // max(E, 1))
    for lo in range(0, row_ids.size, step):
        r = row_ids[lo : lo + step]
        nc = r.size
        h = (self.a1[r][:, None] * idx[None, :] + self.b1[r][:, None]) % _P
        u = (h.astype(np.float64) + 0.5) / _P
        G = np.minimum(self.L - 1, np.floor(-np.log2(u)).astype(np.int64))
        gfp = _reference_fingerprint(self.a2[r][:, None], self.b2[r][:, None], idx[None, :])
        flat = (np.arange(nc, dtype=np.int64)[:, None] * self.L + G).ravel()
        minlen = nc * self.L
        d_b = np.broadcast_to(delta[None, :], (nc, E)).ravel().astype(np.float64)
        w1 = np.broadcast_to((delta * idx)[None, :], (nc, E)).ravel().astype(
            np.float64
        )
        w2 = (delta[None, :] * gfp).ravel().astype(np.float64)
        c0 = np.bincount(flat, weights=d_b, minlength=minlen).astype(np.int64)
        c1 = np.bincount(flat, weights=w1, minlength=minlen).astype(np.int64)
        c2 = np.bincount(flat, weights=w2, minlength=minlen).astype(np.int64)
        self.S0[r] += c0.reshape(nc, self.L)
        self.S1[r] += c1.reshape(nc, self.L)
        self.S2[r] = (self.S2[r] + c2.reshape(nc, self.L)) % _Q


def _assert_same_state(a, b):
    assert (a.S0 == b.S0).all()
    assert (a.S1 == b.S1).all()
    assert (a.S2 == b.S2).all()


def test_rejects_huge_dim():
    with pytest.raises(ValueError):
        L0SamplerBank(1, 1 << 40)


def test_rejects_out_of_range_coordinate():
    bank = L0SamplerBank(4, 100)
    with pytest.raises(ValueError):
        bank.update(np.array([100]), 1)
    with pytest.raises(ValueError):
        bank.update(np.array([-1]), 1)


def test_empty_update_is_noop():
    bank = L0SamplerBank(4, 100)
    bank.update(np.array([], dtype=np.int64), 1)
    assert (bank.sample_all() == -1).all()


def test_single_coordinate_always_recovered():
    bank = L0SamplerBank(64, 1 << 16, seed=1)
    bank.update(np.array([12345]), 1)
    rec = bank.sample_all()
    assert (rec == 12345).all()


def test_empty_vector_recovers_nothing():
    bank = L0SamplerBank(32, 1000, seed=2)
    assert (bank.sample_all() == -1).all()


def test_delete_to_zero_recovers_nothing():
    bank = L0SamplerBank(32, 1000, seed=3)
    coords = np.array([1, 7, 500, 999])
    bank.update(coords, 1)
    bank.update(coords, -1)
    assert (bank.sample_all() == -1).all()


@pytest.mark.parametrize("dim", [1 << 8, 1 << 12, 1 << 16])
def test_recovered_always_in_support(dim):
    g = np.random.default_rng(dim)
    alive = g.choice(dim, size=min(64, dim // 4), replace=False)
    dead = np.setdiff1d(g.choice(dim, size=min(64, dim // 4), replace=False), alive)
    bank = L0SamplerBank(256, dim, seed=4)
    bank.update(np.concatenate([alive, dead]), 1)
    bank.update(dead, -1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    assert len(ok) > 0
    assert np.isin(ok, alive).all()


def test_success_rate_reasonable():
    """Per-sampler success probability is a constant bounded away from 0."""
    g = np.random.default_rng(9)
    alive = g.choice(1 << 14, size=128, replace=False)
    bank = L0SamplerBank(512, 1 << 14, seed=5)
    bank.update(alive, 1)
    rec = bank.sample_all()
    assert (rec >= 0).mean() > 0.4


def test_near_uniformity_over_support():
    """Empirical distribution close to uniform over the support."""
    support = np.arange(50) * 7 + 3
    hits = np.zeros(50)
    bank = L0SamplerBank(4000, 1 << 10, seed=6)
    bank.update(support, 1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    for c in ok:
        hits[(int(c) - 3) // 7] += 1
    freq = hits / hits.sum()
    # every support element sampled, none dominating
    assert (hits > 0).all()
    assert freq.max() < 5 * freq.min() + 0.05


def test_multiplicity_above_one_supported():
    bank = L0SamplerBank(64, 1000, seed=7)
    bank.update(np.array([42]), 3)
    bank.update(np.array([42]), -2)
    assert (bank.sample_all() == 42).all()


def test_merge_equals_single_pass():
    g = np.random.default_rng(11)
    coords = g.choice(1 << 12, size=500)
    deltas = g.choice([-1, 1], size=500)
    whole = L0SamplerBank(32, 1 << 12, seed=8)
    whole.update(coords, deltas)
    part1 = L0SamplerBank(32, 1 << 12, seed=8)
    part2 = L0SamplerBank(32, 1 << 12, seed=8)
    part1.update(coords[:250], deltas[:250])
    part2.update(coords[250:], deltas[250:])
    part1.merge(part2)
    assert (part1.S0 == whole.S0).all()
    assert (part1.S1 == whole.S1).all()
    assert (part1.S2 == whole.S2).all()


def test_merge_rejects_mismatched_banks():
    with pytest.raises(ValueError):
        L0SamplerBank(4, 100, seed=1).merge(L0SamplerBank(4, 100, seed=2))
    with pytest.raises(ValueError):
        L0SamplerBank(4, 100, seed=1).merge(L0SamplerBank(5, 100, seed=1))


def test_update_rows_subset_only():
    bank = L0SamplerBank(8, 1000, seed=9)
    bank.update(np.array([5]), 1, rows=slice(0, 4))
    rec = bank.sample_all()
    assert (rec[:4] == 5).all()
    assert (rec[4:] == -1).all()


def test_chunking_invariance():
    g = np.random.default_rng(13)
    coords = g.choice(1 << 10, size=300)
    a = L0SamplerBank(64, 1 << 10, seed=10)
    b = L0SamplerBank(64, 1 << 10, seed=10)
    a.update(coords, 1, chunk_cells=64)  # force many tiny chunks
    b.update(coords, 1)
    assert (a.S0 == b.S0).all() and (a.S1 == b.S1).all() and (a.S2 == b.S2).all()


def test_fingerprint_is_nonlinear():
    """Regression test: a linear fingerprint makes the 1-sparse test
    vacuous (sum g(i) == S0 * g(S1/S0) identically)."""
    a2 = np.array([[12345]], dtype=np.int64)
    b2 = np.array([[678]], dtype=np.int64)
    i = np.array([10, 20], dtype=np.int64)
    g = _fingerprint(a2, b2, i[None, :])[0]
    g_mid = _fingerprint(a2, b2, np.array([[15]], dtype=np.int64))[0, 0]
    assert (g[0] + g[1]) % ((1 << 31) - 1) != (2 * g_mid) % ((1 << 31) - 1)


def test_two_sparse_levels_rejected():
    """A bank over exactly 2 coordinates must never report a phantom
    third coordinate (the old linear-fingerprint failure mode)."""
    bank = L0SamplerBank(512, 1 << 12, seed=12)
    bank.update(np.array([100, 300]), 1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    assert np.isin(ok, [100, 300]).all()


def test_space_words():
    bank = L0SamplerBank(10, 1 << 8, seed=1)
    assert bank.space_words() == 3 * 10 * bank.L + 4 * 10


def test_levels_scale_with_dim():
    assert L0SamplerBank(1, 1 << 6).L < L0SamplerBank(1, 1 << 20).L


def test_sketch_stream_spark_equals_local(spark):
    from pyspark.sql import functions as F

    g = np.random.default_rng(15)
    import pandas as pd

    pdf = pd.DataFrame(
        {"idx": g.choice(1 << 10, size=1000).astype(np.int64),
         "op": g.choice([-1, 1], size=1000).astype(np.int64)}
    )
    df = spark.createDataFrame(pdf).repartition(8)
    mk = lambda: L0SamplerBank(32, 1 << 10, seed=21)
    merged = sketch_stream_spark(df, mk)
    local = mk()
    local.update(pdf["idx"].to_numpy(), pdf["op"].to_numpy())
    assert (merged.S0 == local.S0).all()
    assert (merged.S1 == local.S1).all()
    assert (merged.S2 == local.S2).all()


# ---------------------------------------------------------------------- #
# update() against the reference kernel
# ---------------------------------------------------------------------- #

_g = np.random.default_rng(17)
_REPEATED = _g.choice(50, size=400)  # ~8 hits per coordinate


@pytest.mark.parametrize(
    "idx, delta, rows, chunk_cells",
    [
        pytest.param(_REPEATED, _g.choice([-2, -1, 1, 3], size=400), None, 65_536,
                     id="repeated-coordinates"),
        pytest.param(np.r_[3, 9, 3, 9, 27, 3], np.r_[1, 2, -1, -2, 5, 1], None, 65_536,
                     id="deltas-sum-to-zero"),
        pytest.param(np.r_[11, 11, 12], np.r_[1, -1, 0], None, 65_536,
                     id="all-deltas-cancel"),
        pytest.param(_REPEATED, 2, None, 65_536, id="scalar-delta"),
        pytest.param(_REPEATED, -1, slice(5, 40), 65_536, id="rows-slice"),
        pytest.param(_REPEATED, np.ones(400, dtype=np.int64), np.r_[63, 0, 17, 18, 2],
                     65_536, id="rows-index-array"),
        pytest.param(_REPEATED, _g.choice([-1, 1], size=400), slice(1, None, 3), 64,
                     id="chunk-cells-64"),
    ],
)
def test_update_matches_reference(idx, delta, rows, chunk_cells):
    new = L0SamplerBank(64, 1 << 12, seed=31)
    ref = L0SamplerBank(64, 1 << 12, seed=31)
    for _ in range(2):  # accumulate onto a non-empty state the second time
        new.update(idx, delta, rows=rows, chunk_cells=chunk_cells)
        _reference_update(ref, idx, delta, rows=rows)
    _assert_same_state(new, ref)


@pytest.mark.parametrize("levels", [33, 12])
def test_level_formula_at_boundaries(levels):
    """With a1 = 1 and idx = 0 a sampler's level hash is h = b1, so each
    sampler puts one cell at the level of its own boundary value of h."""
    hs = {0, 1, _P - 2, _P - 1}
    hs |= {(1 << k) + j for k in range(31) for j in (-1, 0, 1)}
    hs = np.array(sorted(h for h in hs if 0 <= h < _P), dtype=np.int64)
    new = L0SamplerBank(hs.size, 1 << 10, levels=levels)
    new.a1[:] = 1
    new.b1[:] = hs
    ref = L0SamplerBank(hs.size, 1 << 10, levels=levels)
    ref.a1[:], ref.b1[:] = new.a1, new.b1
    new.update(np.array([0]), 1)
    _reference_update(ref, np.array([0]), 1)
    _assert_same_state(new, ref)
    want = np.minimum(levels - 1, np.floor(-np.log2((hs + 0.5) / _P)).astype(np.int64))
    assert (np.argmax(new.S0 != 0, axis=1) == want).all()
    assert (new.S0.sum(axis=1) == 1).all()


@pytest.mark.parametrize("c", [2, 16])
def test_insertion_deletion_matches_reference_kernel(c):
    pdf, _ = synth_data.turnstile_star_pandas(n=128, m=256, d=32, churn=0.5, seed=0)
    pdf = pdf.sort_values("pos").reset_index(drop=True)
    new = InsertionDeletionND(128, 256, 32, c, seed=c)
    ref = InsertionDeletionND(128, 256, 32, c, seed=c)
    for bank in (ref.vertex_bank, ref.edge_bank):
        bank.update = lambda *a, _bank=bank, **k: _reference_update(_bank, *a, **k)
    run_stream_pandas(new, pdf, batch_size=300)
    run_stream_pandas(ref, pdf, batch_size=300)
    _assert_same_state(new.vertex_bank, ref.vertex_bank)
    _assert_same_state(new.edge_bank, ref.edge_bank)
    assert new.result() == ref.result()
    assert new.result() is not None


def test_rejects_inexact_float_accumulation():
    """Units are summed in float64: sum|delta| * max(dim, Q) must stay
    below 2^53, i.e. sum|delta| <= 2^22 after merging coordinates."""
    bank = L0SamplerBank(4, 100, seed=1)
    with pytest.raises(ValueError, match="float64"):
        bank.update(np.array([7]), (1 << 22) + 1)
    with pytest.raises(ValueError, match="float64"):
        bank.update(np.arange(100), (1 << 22) // 100 + 1)
    assert (bank.S0 == 0).all()
    # opposite deltas on one coordinate cancel before the bound is checked
    bank.update(np.array([7, 7]), np.array([(1 << 22) + 1, -(1 << 22) - 1]))
    bank.update(np.array([7]), 1 << 22)
    assert (bank.sample_all() == 7).all()


# ---------------------------------------------------------------------- #
# Properties (hypothesis profile in conftest.py)
# ---------------------------------------------------------------------- #

_DIM = 1 << 12
_updates = st.lists(
    st.tuples(st.integers(0, _DIM - 1), st.integers(-3, 3)), min_size=1, max_size=60
)


def _bank():
    return L0SamplerBank(24, _DIM, seed=41)


def _apply(bank, ups, **kw):
    if ups:
        idx, delta = zip(*ups)
        bank.update(np.array(idx), np.array(delta), **kw)


@given(_updates, st.data())
def test_property_split_batch_equals_one_call(ups, data):
    cut = data.draw(st.integers(0, len(ups)))
    chunk_cells = data.draw(st.sampled_from([1, 64, 65_536]))
    whole, split = _bank(), _bank()
    _apply(whole, ups)
    _apply(split, ups[:cut], chunk_cells=chunk_cells)
    _apply(split, ups[cut:], chunk_cells=chunk_cells)
    _assert_same_state(whole, split)


@given(_updates, _updates)
def test_property_merge_is_linear(xs, ys):
    both, left, right = _bank(), _bank(), _bank()
    _apply(both, xs + ys)
    _apply(left, xs)
    _apply(right, ys)
    _assert_same_state(left.merge(right), both)


@given(_updates, st.data())
def test_property_update_matches_reference(ups, data):
    rows = data.draw(st.sampled_from([None, slice(3, 17), np.r_[0, 23, 5]]))
    new, ref = _bank(), _bank()
    idx, delta = map(np.array, zip(*ups))
    new.update(idx, delta, rows=rows, chunk_cells=data.draw(st.sampled_from([1, 100])))
    _reference_update(ref, idx, delta, rows=rows)
    _assert_same_state(new, ref)
