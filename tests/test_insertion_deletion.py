"""Algorithm 3 / Theorem 5.4: turnstile correctness, strategies, space."""
import math

import numpy as np
import pandas as pd
import pytest

from repro import space, synth_data
from repro.core.insertion_deletion import InsertionDeletionND
from repro.streamsim.runner import run_stream_pandas
from repro.streamsim.stream import final_graph


def run_on(pdf, n, m, d, c, seed=0, **kw):
    return run_stream_pandas(
        InsertionDeletionND(n, m, d, c, seed=seed, **kw), pdf, batch_size=4096
    )


@pytest.fixture(scope="module")
def one_heavy():
    pdf, info = synth_data.turnstile_star_pandas(
        n=128, m=256, d=16, avg_deg=3.0, churn=0.5, seed=61
    )
    return pdf, info


@pytest.fixture(scope="module")
def many_heavy():
    pdf, info = synth_data.turnstile_star_pandas(
        n=128, m=256, d=16, n_heavy=16, avg_deg=1.0, churn=0.3, seed=67
    )
    return pdf, info


def test_rejects_bad_c():
    with pytest.raises(ValueError):
        InsertionDeletionND(8, 8, 4, 0)


def test_rejects_edge_dim_at_cap():
    """The edge bank indexes edges by a*m + b in a field of size 2^31 - 1."""
    with pytest.raises(ValueError, match=r"n\*m = 65536\*32768 .* 2147483647"):
        InsertionDeletionND(1 << 16, 1 << 15, 4, 2)
    InsertionDeletionND(1, (1 << 31) - 2, 4, 2)  # largest n*m below the cap


def test_x_parameter_regimes():
    assert InsertionDeletionND(256, 8, 8, 2).x == 128  # n/c
    assert InsertionDeletionND(256, 8, 8, 32).x == 16  # sqrt(n)


@pytest.mark.parametrize("c", [2, 4, 8])
def test_succeeds_on_one_heavy(one_heavy, c):
    pdf, info = one_heavy
    p = run_on(pdf, 128, 256, 16, c, seed=c)
    res = p.result()
    assert res is not None
    assert len(res[1]) >= p.d_c


@pytest.mark.parametrize("c", [2, 4])
def test_output_edges_exist_in_final_graph(one_heavy, c):
    """Deletions must be fully honoured: no reported edge may be a
    deleted (churn) edge."""
    pdf, _ = one_heavy
    p = run_on(pdf, 128, 256, 16, c, seed=10 + c)
    v, bs = p.result()
    fg = final_graph(pdf)
    edges = set(zip(fg["a"], fg["b"]))
    assert all((v, b) in edges for b in bs)


def test_churn_would_fool_insertion_only(one_heavy):
    """Sanity: running degree of some decoy transiently exceeds the
    final degree, so degree counting over inserts alone overcounts."""
    pdf, info = one_heavy
    ins_deg = pdf[pdf["op"] == 1].groupby("a").size()
    fin_deg = final_graph(pdf).groupby("a").size()
    decoys = [v for v in ins_deg.index if v not in info["heavy"]]
    assert any(ins_deg[v] > fin_deg.get(v, 0) for v in decoys)


def test_vertex_strategy_wins_on_many_heavy(many_heavy):
    """Lemma 5.2 regime: many vertices of degree >= d/c -> the vertex
    bank alone recovers a full neighborhood."""
    pdf, _ = many_heavy
    p = run_on(pdf, 128, 256, 16, 4, seed=3)
    nbrs: dict[int, set] = {}
    for slot, coord in enumerate(p.vertex_bank.sample_all()):
        if coord >= 0:
            v = int(p.sampled_vertices[slot // p.k_v])
            nbrs.setdefault(v, set()).add(int(coord))
    assert any(len(s) >= p.d_c for s in nbrs.values())


def test_edge_strategy_wins_on_one_heavy():
    """Lemma 5.3 regime: a single Delta-degree vertex among a sparse
    background is caught by the global edge samplers alone."""
    pdf, info = synth_data.turnstile_star_pandas(
        n=64, m=256, d=32, avg_deg=1.0, background_max_deg=4, churn=0.2, seed=71
    )
    p = run_on(pdf, 64, 256, 32, 2, seed=5)
    heavy_v = next(iter(info["heavy"]))
    rec = p.edge_bank.sample_all()
    got = {int(cd % 256) for cd in rec[rec >= 0] if int(cd // 256) == heavy_v}
    assert len(got) >= p.d_c


def test_merge_linearity_split_stream(one_heavy):
    pdf, _ = one_heavy
    mk = lambda: InsertionDeletionND(128, 256, 16, 4, seed=9)
    whole = run_on(pdf, 128, 256, 16, 4, seed=9)
    half = len(pdf) // 2
    p1 = run_stream_pandas(mk(), pdf.iloc[:half])
    p2 = run_stream_pandas(mk(), pdf.iloc[half:])
    p1.merge(p2)
    assert (p1.edge_bank.S0 == whole.edge_bank.S0).all()
    assert (p1.vertex_bank.S1 == whole.vertex_bank.S1).all()


def test_batch_order_irrelevant(one_heavy):
    """Linear sketches: permuting the stream leaves the state identical."""
    pdf, _ = one_heavy
    a = run_on(pdf, 128, 256, 16, 4, seed=11)
    shuffled = pdf.sample(frac=1.0, random_state=0).reset_index(drop=True)
    shuffled["pos"] = np.arange(len(shuffled))
    b = run_on(shuffled, 128, 256, 16, 4, seed=11)
    assert (a.edge_bank.S0 == b.edge_bank.S0).all()
    assert (a.edge_bank.S2 == b.edge_bank.S2).all()


def test_sampler_counts_match_formulas():
    n, m, d, c = 128, 256, 16, 4
    p = InsertionDeletionND(n, m, d, c, seed=0)
    x = max(n / c, math.sqrt(n))
    assert p.k_v == math.ceil((d / c) * math.log(n))
    assert p.k_e == math.ceil((n * d / c) * (1 / x + 1 / c) * math.log(n * m))
    assert len(p.sampled_vertices) == min(n, math.ceil(x * math.log(n)))


def test_space_decreases_with_c():
    words = [
        InsertionDeletionND(128, 256, 16, c).space_words() for c in (2, 4, 8)
    ]
    assert words[0] > words[1] > words[2]


def test_space_tracks_thm54_shape():
    """Measured cells within a polylog factor of the Theorem 5.4 bound."""
    for c in (2, 4, 8):
        meas = InsertionDeletionND(256, 512, 32, c).space_words()
        bound = space.thm54_words(256, 32, c)
        assert bound / 64 <= meas <= bound * 64


def test_constant_multipliers_shrink_state():
    big = InsertionDeletionND(128, 256, 16, 4)
    small = InsertionDeletionND(
        128, 256, 16, 4, c0_vertex=0.5, c0_per_vertex=0.5, c0_edge=0.5
    )
    assert small.space_words() < big.space_words()


def test_fail_reported_when_graph_empty():
    p = InsertionDeletionND(64, 64, 8, 2, seed=1)
    assert p.result() is None
    assert not p.succeeded()


def test_insert_then_delete_everything(one_heavy):
    """Deleting the entire graph leaves an empty sketch -> fail."""
    pdf, _ = one_heavy
    fg = final_graph(pdf)
    anti = fg.copy()
    anti["op"] = -1
    anti["pos"] = np.arange(len(anti)) + pdf["pos"].max() + 1
    both = pd.concat([pdf, anti[["pos", "a", "b", "op"]]], ignore_index=True)
    p = run_on(both, 128, 256, 16, 4, seed=13)
    assert p.result() is None
