"""Benchmark for Table 6: Star Detection (Cors 3.3/5.5)."""
import pytest

from repro.tables import table6


@pytest.mark.benchmark(group="table6")
def test_bench_table6(spark, benchmark):
    out = benchmark.pedantic(
        lambda: table6(spark, ns=(512, 2048), seed=0), rounds=1, iterations=1
    )
    assert (out["approx_ratio"] <= out["paper_guarantee"]).all()
    assert out["valid_output"].all()
    ins = out[out["model"] == "insertion_only"]
    assert (ins["measured_words"] <= ins["semi_streaming_budget"]).all()
