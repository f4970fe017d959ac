"""Algorithm 2 / Theorem 3.2: correctness, validity, space, orderings."""
import numpy as np
import pandas as pd
import pytest

from repro import space, synth_data
from repro.core.deg_res_sampling import DegResSampling
from repro.core.insertion_only import InsertionOnlyND, run_thresholds
from repro.streamsim.runner import checkpoint, restore, run_stream_pandas


def run_on(pdf, n, d, c, seed=0, batch_size=4096):
    return run_stream_pandas(InsertionOnlyND(n, d, c, seed=seed), pdf, batch_size)


@pytest.mark.parametrize("c,expected", [
    (2, [1, 8]),
    (4, [1, 4, 8, 12]),
    (1, [1]),
])
def test_run_thresholds(c, expected):
    assert run_thresholds(16, c) == expected


def test_rejects_c_zero():
    with pytest.raises(ValueError):
        InsertionOnlyND(8, 4, 0)


def test_rejects_deletions():
    p = InsertionOnlyND(8, 4, 2)
    with pytest.raises(ValueError):
        p.process_batch(
            pd.DataFrame({"pos": [0], "a": [0], "b": [0], "op": [-1]})
        )


@pytest.mark.parametrize("proc", [
    lambda: InsertionOnlyND(8, 3, 1),
    lambda: DegResSampling(8, 3, 1, 1),
], ids=["InsertionOnlyND", "DegResSampling"])
@pytest.mark.parametrize("a", [[-1, -1, -1], [8]], ids=["negative", "n"])
def test_rejects_out_of_range_vertex(proc, a):
    """A negative a must not alias vertex n-1, nor a >= n raise IndexError."""
    p = proc()
    batch = pd.DataFrame(
        {"pos": range(len(a)), "a": a, "b": range(5, 5 + len(a)), "op": 1}
    )
    with pytest.raises(ValueError, match=rf"a={a[0]} .*n=8"):
        p.process_batch(batch)
    assert p.deg.sum() == 0


def test_reservoir_size_matches_theorem():
    p = InsertionOnlyND(1024, 64, 4)
    assert p.s == space.reservoir_size(1024, 4) == int(np.ceil(np.log(1024) * 1024**0.25))


@pytest.mark.parametrize("order", ["random", "heavy_last", "heavy_first", "by_vertex"])
@pytest.mark.parametrize("c", [2, 3, 4])
def test_success_and_validity_all_orderings(order, c):
    n, d = 128, 32
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=512, d=d, avg_deg=3.0, order=order, seed=13
    )
    p = run_on(pdf, n, d, c, seed=41)
    assert p.succeeded(), f"failed on order={order}, c={c}"
    v, bs = p.result()
    assert len(bs) >= max(1, d // c)
    # output must be a genuine neighborhood of the input graph
    true_nbrs = set(pdf.loc[pdf["a"] == v, "b"].tolist())
    assert bs <= true_nbrs


@pytest.mark.parametrize("profile", ["uniform", "zipf"])
def test_success_across_profiles(profile):
    n, d, c = 128, 32, 4
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=512, d=d, avg_deg=4.0, profile=profile, seed=17
    )
    assert run_on(pdf, n, d, c).succeeded()


def test_success_rate_meets_whp_bound():
    """Theorem 3.2: success prob >= 1 - 1/n; with n=64 over 60 trials we
    allow at most a couple of failures."""
    n, d, c = 64, 16, 2
    fails = 0
    for t in range(60):
        pdf, _ = synth_data.planted_star_pandas(
            n=n, m=256, d=d, avg_deg=3.0, order="heavy_last", seed=100 + t
        )
        if not run_on(pdf, n, d, c, seed=t).succeeded():
            fails += 1
    assert fails <= 3


def test_many_heavy_vertices_found_by_run0():
    """With Omega(n^{1-1/c}) heavy vertices, the i=0 run succeeds."""
    n, d, c = 128, 16, 2
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=512, d=d, n_heavy=32, avg_deg=1.0, seed=23
    )
    p = run_on(pdf, n, d, c)
    assert p.runs[0].succeeded()


def test_single_heavy_found_by_late_run():
    """One heavy vertex among quiet background: the high-threshold run
    must be the one that catches it (its reservoir sees few candidates)."""
    n, d, c = 256, 64, 4
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=1024, d=d, avg_deg=2.0, background_max_deg=8, seed=29
    )
    p = run_on(pdf, n, d, c)
    assert p.succeeded()
    heavy_v = next(iter(info["heavy"]))
    # the last run's candidates are exactly the vertices of degree >= 3d/4
    assert p.runs[-1].x == 1
    assert p.runs[-1].collected.get(heavy_v) is not None


def test_space_within_paper_bound():
    n, d, c = 256, 32, 2
    pdf, _ = synth_data.planted_star_pandas(n=n, m=1024, d=d, avg_deg=4.0, seed=31)
    p = run_on(pdf, n, d, c)
    assert p.space_words() <= space.thm32_words(n, d, c)
    assert p.space_words() < space.exact_words(n, d)


def test_space_decreases_with_c():
    n, d = 256, 64
    pdf, _ = synth_data.planted_star_pandas(n=n, m=1024, d=d, avg_deg=4.0, seed=37)
    words = [run_on(pdf, n, d, c).space_words() for c in (2, 4, 8)]
    # measured state shrinks overall with c (ties possible at small n);
    # the Theorem 3.2 bound is strictly decreasing
    assert words[0] > words[2]
    bounds = [space.thm32_words(n, d, c) for c in (2, 4, 8)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_output_neighborhood_of_reported_vertex_only():
    n, d, c = 64, 16, 2
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=41)
    p = run_on(pdf, n, d, c)
    v, bs = p.result()
    edges = set(zip(pdf["a"], pdf["b"]))
    assert all((v, b) in edges for b in bs)


def test_batch_size_invariance():
    n, d, c = 64, 16, 3
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=43)
    a = run_on(pdf, n, d, c, seed=7, batch_size=11)
    b = run_on(pdf, n, d, c, seed=7, batch_size=997)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.collected == rb.collected


def test_no_heavy_vertex_no_false_large_output():
    """Without the promise the algorithm may fail, but any output is
    still a genuine neighborhood (soundness)."""
    g = np.random.default_rng(5)
    pdf = pd.DataFrame({
        "pos": np.arange(300), "a": g.integers(0, 64, 300),
        "b": np.arange(300), "op": np.int32(1),
    })
    p = run_on(pdf, 64, 200, 2)
    res = p.result()
    if res is not None:
        v, bs = res
        assert bs <= set(pdf.loc[pdf["a"] == v, "b"])


def test_degree_array_shared_across_runs():
    n, d, c = 64, 16, 4
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=47)
    p = run_on(pdf, n, d, c)
    true_deg = pdf.groupby("a").size()
    for v, cnt in true_deg.items():
        assert p.deg[v] == cnt
    for r in p.runs:
        assert r.deg is p.deg


def test_result_deterministic_and_survives_checkpoint():
    """result() reads the state only: the same answer on every call and
    after a checkpoint/restore round trip."""
    n, d, c = 256, 32, 8
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=1024, d=d, n_heavy=8, avg_deg=3.0, seed=53
    )
    p = run_on(pdf, n, d, c, seed=5)
    assert sum(r.succeeded() for r in p.runs) > 1
    first = p.result()
    assert first is not None
    assert all(p.result() == first for _ in range(5))
    assert restore(checkpoint(p)).result() == first
