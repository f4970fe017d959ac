"""Stream substrate: Catalyst batching/ordering, runner, serialization."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.exact_baseline import ExactND
from repro.oracle import assert_equivalent
from repro.streamsim import stream as ss
from repro.streamsim.runner import (
    checkpoint,
    restore,
    run_stream,
    run_stream_pandas,
)


@pytest.fixture(scope="module")
def small_stream(spark):
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, seed=11
    )
    return spark.createDataFrame(pdf), pdf, info


def test_stream_from_pandas_schema(spark):
    pdf = pd.DataFrame({"a": [1, 2], "b": [3, 4]})
    df = ss.stream_from_pandas(spark, pdf)
    assert df.columns == ss.STREAM_COLS
    got = df.orderBy("pos").toPandas()
    assert got["op"].tolist() == [1, 1]
    assert got["pos"].tolist() == [0, 1]


def test_with_batch_id_matches_floor_division(small_stream):
    df, pdf, _ = small_stream
    got = ss.with_batch_id(df, 10).orderBy("pos").toPandas()
    assert (got["batch"] == got["pos"] // 10).all()


@pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
def test_iter_batches_covers_stream_in_order(small_stream, batch_size):
    df, pdf, _ = small_stream
    seen = pd.concat(list(ss.iter_batches(df, batch_size)), ignore_index=True)
    assert seen["pos"].is_monotonic_increasing
    pd.testing.assert_frame_equal(
        seen, pdf.sort_values("pos").reset_index(drop=True), check_dtype=False
    )


def test_iter_batches_sizes(small_stream):
    df, pdf, _ = small_stream
    batches = list(ss.iter_batches(df, 50))
    assert all(len(b) == 50 for b in batches[:-1])
    assert sum(len(b) for b in batches) == len(pdf)


def test_permute_stream_is_permutation(small_stream):
    df, pdf, _ = small_stream
    out = ss.permute_stream(df, seed=5).toPandas()
    assert sorted(out["pos"].tolist()) == list(range(len(pdf)))
    # same multiset of edges
    assert set(zip(out["a"], out["b"])) == set(zip(pdf["a"], pdf["b"]))


def test_final_graph_insertion_only_is_identity(small_stream):
    _, pdf, _ = small_stream
    fg = ss.final_graph(pdf)
    assert set(zip(fg["a"], fg["b"])) == set(zip(pdf["a"], pdf["b"]))


def test_final_graph_cancels_deletions():
    pdf = pd.DataFrame(
        {
            "pos": range(4),
            "a": [1, 1, 2, 1],
            "b": [5, 6, 7, 5],
            "op": [1, 1, 1, -1],
        }
    )
    fg = ss.final_graph(pdf)
    assert set(zip(fg["a"], fg["b"])) == {(1, 6), (2, 7)}


def test_degrees_oracle_checked(spark, small_stream):
    """Catalyst degree aggregation vs the DuckDB oracle."""
    df, pdf, _ = small_stream
    from repro.core.exact_baseline import degrees_spark

    assert_equivalent(
        degrees_spark(df),
        "select a, count(*) as deg from edges group by a",
        edges=pdf,
    )


@pytest.mark.parametrize("batch_size", [13, 500])
def test_run_stream_matches_run_stream_pandas(small_stream, batch_size):
    df, pdf, _ = small_stream
    p1 = run_stream(ExactND(64, 16), df, batch_size=batch_size)
    p2 = run_stream_pandas(ExactND(64, 16), pdf, batch_size=batch_size)
    assert p1.stored == p2.stored


def test_checkpoint_restore_roundtrip(small_stream):
    _, pdf, _ = small_stream
    half = len(pdf) // 2
    p = run_stream_pandas(ExactND(64, 16), pdf.iloc[:half])
    blob = checkpoint(p)
    assert len(checkpoint(p)) == len(blob)
    q = restore(blob)
    run_stream_pandas(q, pdf.iloc[half:])
    full = run_stream_pandas(ExactND(64, 16), pdf)
    assert q.stored == full.stored


def test_state_size_grows_with_stored_edges():
    small = ExactND(16, 4)
    big = ExactND(16, 4)
    run_stream_pandas(
        big,
        pd.DataFrame(
            {"pos": range(64), "a": np.arange(64) % 16, "b": range(64), "op": 1}
        ),
    )
    assert len(checkpoint(big)) > len(checkpoint(small))
