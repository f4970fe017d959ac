"""Distributed (Spark applyInPandas + bottom-k merge) Algorithm 2."""
import numpy as np
import pytest

from repro import synth_data
from repro.core.deg_res_sampling import _priority
from repro.core.insertion_only import InsertionOnlyND, run_distributed
from repro.space import reservoir_size
from repro.streamsim.runner import run_stream


@pytest.fixture(scope="module")
def instance(spark):
    n, d = 256, 32
    df, info = synth_data.planted_star_stream(
        spark, n=n, m=1024, d=d, avg_deg=3.0, order="random", seed=51
    )
    return df.cache(), info, n, d


def test_priority_deterministic_and_uniformish():
    v = np.arange(10_000)
    p1 = _priority(3001, v)
    p2 = _priority(3001, v)
    assert (p1 == p2).all()
    assert 0.45 < p1.mean() < 0.55
    assert (p1 >= 0).all() and (p1 < 1).all()
    # different run/seed decorrelates
    assert not np.allclose(p1, _priority(3002, v))
    assert not np.allclose(p1, _priority(4001, v))


@pytest.mark.parametrize("c", [2, 4])
def test_distributed_finds_valid_neighborhood(instance, c):
    df, info, n, d = instance
    out = run_distributed(df, n, d, c, seed=3, num_partitions=8)
    res = out["result"]
    assert res is not None
    v, bs = res
    assert len(bs) >= max(1, d // c)
    pdf = df.toPandas()
    assert bs <= set(pdf.loc[pdf["a"] == v, "b"])


def test_distributed_candidate_counts_exact(instance):
    """x per run must equal the true number of threshold-reaching vertices
    (degrees are exact because partitioning is by vertex)."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=5, num_partitions=8)
    deg = df.toPandas().groupby("a").size()
    assert out["per_run"][0]["x"] == (deg >= 1).sum()
    assert out["per_run"][1]["x"] == (deg >= d // 2).sum()


def test_distributed_reservoir_capped(instance):
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=7, num_partitions=8)
    s = reservoir_size(n, 2)
    for run in out["per_run"].values():
        assert len(run["members"]) <= s


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
@pytest.mark.parametrize("c", [2, 4])
def test_distributed_equals_sequential(instance, c, num_partitions):
    """One kernel: for a given seed the Spark path is the sequential
    processor, whatever the partition count."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, c, seed=11, num_partitions=num_partitions)
    seq = run_stream(InsertionOnlyND(n, d, c, seed=11), df)
    assert out["result"] == seq.result()
    for i, run in enumerate(seq.runs):
        got = out["per_run"][i]
        assert got["members"] == {v: set(bs) for v, bs in run.collected.items()}
        assert got["x"] == run.x


def test_distributed_collections_match_thresholds(instance):
    """Each member's collected edges start at its threshold edge."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=13, num_partitions=8)
    pdf = df.toPandas().sort_values("pos")
    d1 = max(1, d // 2)
    for v, bs in out["per_run"][1]["members"].items():
        edges_v = pdf[pdf["a"] == v]["b"].tolist()
        # collected is a subset of the vertex's edges from index d1-1 on
        assert set(bs) <= set(edges_v[d1 - 1 :])
        assert len(bs) <= d1
