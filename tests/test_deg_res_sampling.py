"""Algorithm 1 (Deg-Res-Sampling): semantics, Lemma 3.1, invariances."""
import numpy as np
import pandas as pd
import pytest

from repro.core.deg_res_sampling import DegResSampling, _priority
from repro.streamsim.runner import run_stream_pandas


def mk_stream(edges: list[tuple[int, int]]) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "pos": np.arange(len(edges), dtype=np.int64),
            "a": [e[0] for e in edges],
            "b": [e[1] for e in edges],
            "op": np.int32(1),
        }
    )


def star(v: int, deg: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(v, offset + i) for i in range(deg)]


def test_rejects_bad_params():
    for d1, d2, s in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            DegResSampling(8, d1, d2, s)


def test_rejects_deletions():
    p = DegResSampling(8, 1, 1, 1)
    bad = mk_stream([(0, 1)])
    bad["op"] = -1
    with pytest.raises(ValueError):
        p.process_batch(bad)


def test_small_reservoir_stores_all_when_few_candidates():
    """Lemma 3.1 first case: fewer candidates than s -> deterministic."""
    edges = star(0, 10) + star(1, 10, 100)
    p = run_stream_pandas(DegResSampling(8, d1=3, d2=4, s=8), mk_stream(edges))
    assert set(p.reservoir) == {0, 1}
    assert p.succeeded()


@pytest.mark.parametrize("d1,d2", [(1, 5), (3, 4), (5, 6), (10, 1)])
def test_collected_size_formula(d1, d2):
    """A vertex of degree deg yields min(d2, deg - d1 + 1) neighbors."""
    deg = 12
    p = run_stream_pandas(
        DegResSampling(4, d1=d1, d2=d2, s=4), mk_stream(star(2, deg))
    )
    assert len(p.collected[2]) == min(d2, deg - d1 + 1)


def test_collection_starts_at_candidate_edge():
    """The edge that lifts deg to d1 is itself collected (paper line 13)."""
    p = run_stream_pandas(DegResSampling(4, d1=3, d2=2, s=4), mk_stream(star(1, 5)))
    assert p.collected[1] == [2, 3]  # b-values of 3rd and 4th edges


def test_vertex_below_threshold_never_enters():
    p = run_stream_pandas(DegResSampling(4, d1=5, d2=1, s=4), mk_stream(star(1, 4)))
    assert p.reservoir == []
    assert p.x == 0
    assert not p.succeeded()


def test_candidate_counter_counts_all_threshold_hits():
    edges = star(0, 3) + star(1, 3, 10) + star(2, 2, 20) + star(3, 7, 30)
    p = run_stream_pandas(DegResSampling(8, d1=3, d2=1, s=1), mk_stream(edges))
    assert p.x == 3  # vertices 0, 1, 3 reached degree 3


@pytest.mark.parametrize("batch_size", [1, 3, 17, 1000])
def test_batch_size_invariance(batch_size):
    """Micro-batching is an execution detail: same seed => same output."""
    g = np.random.default_rng(0)
    edges = [(int(g.integers(0, 16)), int(g.integers(0, 100))) for _ in range(400)]
    pdf = mk_stream(edges).drop_duplicates(["a", "b"]).reset_index(drop=True)
    pdf["pos"] = np.arange(len(pdf))
    ref = run_stream_pandas(DegResSampling(16, 3, 4, 3, seed=9), pdf, batch_size=123)
    got = run_stream_pandas(
        DegResSampling(16, 3, 4, 3, seed=9), pdf, batch_size=batch_size
    )
    assert ref.collected == got.collected
    assert ref.reservoir == got.reservoir
    assert ref.x == got.x


def test_reservoir_never_exceeds_s():
    edges = [(v, b) for v in range(32) for b in range(3)]
    p = run_stream_pandas(DegResSampling(32, 2, 1, s=5), mk_stream(edges))
    assert len(p.reservoir) <= 5
    assert p.x == 32


def test_reservoir_is_bottom_s_by_priority():
    """The reservoir holds the s candidates of smallest priority."""
    edges = [(v, b) for v in range(32) for b in range(3)]
    p = run_stream_pandas(DegResSampling(32, 2, 1, s=5, seed=3), mk_stream(edges))
    bottom = np.argsort(_priority(3, np.arange(32)))[:5]
    assert set(p.reservoir) == set(bottom.tolist())


def test_reservoir_uniformity():
    """Chi-square-ish check of the reservoir's uniform-sample invariant."""
    edges = [(v, b) for v in range(20) for b in range(2)]
    pdf = mk_stream(edges)
    hits = np.zeros(20)
    trials = 400
    for t in range(trials):
        p = run_stream_pandas(DegResSampling(20, 2, 1, s=4, seed=t), pdf)
        for v in p.reservoir:
            hits[v] += 1
    expected = trials * 4 / 20
    assert abs(hits.mean() - expected) < 1e-9  # exactly s per trial
    # every vertex within 4 sigma of the binomial expectation
    sigma = np.sqrt(trials * (4 / 20) * (1 - 4 / 20))
    assert (np.abs(hits - expected) < 4 * sigma).all()


def test_lemma31_success_rate():
    """Success prob >= 1 - (1 - s/n1)^n2 on a worst-case-ish instance."""
    n, n1, n2, s = 64, 32, 4, 8
    # n1 vertices of degree d1=2; n2 of them continue to degree d1+d2-1=5
    edges = []
    for v in range(n1):
        edges.extend(star(v, 2, 100 * v))
    for v in range(n2):
        edges.extend([(v, 100 * v + 10 + i) for i in range(3)])
    pdf = mk_stream(edges)
    wins = sum(
        run_stream_pandas(DegResSampling(n, 2, 4, s, seed=t), pdf).succeeded()
        for t in range(200)
    )
    bound = 1 - (1 - s / n1) ** n2
    assert wins / 200 >= bound - 0.1


def test_eviction_discards_collected_edges():
    """With s=1, a second candidate can evict the first; the evicted
    vertex's edges must be gone from the collection."""
    edges = star(0, 5) + star(1, 5, 100)
    evicted_seen = kept_seen = False
    for t in range(50):
        p = run_stream_pandas(DegResSampling(4, 2, 10, s=1, seed=t), mk_stream(edges))
        assert len(p.collected) == len(p.reservoir) == 1
        v = p.reservoir[0]
        if v == 1:
            evicted_seen = True
            assert p.collected[1] == [101, 102, 103, 104]
        else:
            kept_seen = True
            assert p.collected[0] == [1, 2, 3, 4]
    assert evicted_seen and kept_seen, "both reservoir outcomes must occur"


def test_result_returns_full_neighborhood_or_none():
    p = run_stream_pandas(DegResSampling(4, 1, 8, 4), mk_stream(star(0, 3)))
    assert p.result() is None  # only 3 < 8 edges collected
    q = run_stream_pandas(DegResSampling(4, 1, 3, 4), mk_stream(star(0, 3)))
    v, bs = q.result()
    assert v == 0 and bs == {0, 1, 2}


def test_space_words_accounting():
    p = run_stream_pandas(DegResSampling(16, 1, 4, 4), mk_stream(star(0, 6)))
    # n degree words + 1 reservoir slot + 4 collected + 2 scalars
    assert p.space_words() == 16 + 1 + 4 + 2
    assert p.peak_collected >= 4


def test_shared_degree_mode_does_not_own_degrees():
    deg = np.zeros(8, dtype=np.int64)
    p = DegResSampling(8, 2, 2, 2, shared_degrees=deg)
    assert p.space_words() < 8  # no degree array charged
    with pytest.raises(RuntimeError):  # its owner updates deg; this would double-count
        p.process_batch(mk_stream(star(0, 3)))
    assert deg.sum() == 0


def test_repeated_edge_counts_once():
    """Simple-stream contract: a repeated edge is one witness, not two."""
    edges = [(2, 7), (2, 7), (2, 8), (2, 8), (2, 9)]
    p = run_stream_pandas(DegResSampling(10, d1=1, d2=4, s=4), mk_stream(edges))
    assert p.collected[2] == [7, 7, 8, 8]  # duplicates used up the slots
    assert not p.succeeded()
    assert p.best() is None and p.result() is None
