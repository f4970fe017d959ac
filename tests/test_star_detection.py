"""Star Detection (Corollaries 3.3 / 5.5): double cover, guesses, approx."""
import math

import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.insertion_only import InsertionOnlyND
from repro.core.star_detection import StarDetection, delta_guesses, double_cover
from repro.streamsim.runner import run_stream_pandas


def test_delta_guesses_geometric():
    gs = delta_guesses(1000, eps=1.0)
    assert gs[0] == 1
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert gs[-1] < 1000
    assert len(gs) <= math.ceil(math.log2(1000)) + 1


def test_delta_guesses_fine_eps():
    assert len(delta_guesses(1000, eps=0.5)) > len(delta_guesses(1000, eps=2.0))


def test_double_cover_structure():
    batch = pd.DataFrame({"pos": [0, 1], "u": [3, 5], "v": [4, 6]})
    out = double_cover(batch)
    assert list(zip(out["a"], out["b"])) == [(3, 4), (4, 3), (5, 6), (6, 5)]
    assert out["pos"].tolist() == [0, 1, 2, 3]
    assert (out["op"] == 1).all()


def test_rejects_unknown_model():
    with pytest.raises(ValueError):
        StarDetection(16, model="nope")


def test_default_c_is_log_n():
    assert StarDetection(256).c == 8


@pytest.mark.parametrize("n,planted", [(128, 32), (256, 64)])
def test_insertion_only_approximation(n, planted):
    pdf, info = synth_data.general_graph_pandas(
        n=n, avg_deg=3.0, planted_deg=planted, seed=83
    )
    sd = StarDetection(n, eps=1.0, seed=1, model="insertion_only")
    run_stream_pandas(sd, pdf, batch_size=2048)
    res = sd.result()
    assert res is not None
    v, bs = res
    guarantee = info["delta"] / ((1 + sd.eps) * sd.c)
    assert len(bs) >= guarantee
    # star must be genuine: every leaf adjacent to v in the input
    adj = set(map(tuple, pdf[["u", "v"]].to_numpy()))
    assert all((min(v, b), max(v, b)) in adj for b in bs)


def test_turnstile_approximation():
    n = 64
    pdf, info = synth_data.general_graph_pandas(
        n=n, avg_deg=2.0, planted_deg=24, seed=89
    )
    sd = StarDetection(n, c=4, eps=1.0, seed=2, model="turnstile")
    run_stream_pandas(sd, pdf, batch_size=2048)
    res = sd.result()
    assert res is not None
    assert len(res[1]) >= info["delta"] / (2 * 4)


def test_space_is_semi_streaming_scale():
    """Cor 3.3: space n^{1+1/c} polylog -> for c=log n it is n polylog."""
    n = 256
    pdf, _ = synth_data.general_graph_pandas(n=n, avg_deg=2.0, seed=91)
    sd = StarDetection(n, seed=3, model="insertion_only")
    run_stream_pandas(sd, pdf)
    assert sd.space_words() <= n * int(math.log(n)) ** 3


class PerGuessReference:
    """The original construction: one independent InsertionOnlyND per guess."""

    def __init__(self, n, c, seed, guesses):
        self.procs = [InsertionOnlyND(n, g, c, seed + 17 * g) for g in guesses]

    def process_batch(self, batch):
        doubled = double_cover(batch)
        for p in self.procs:
            p.process_batch(doubled)

    def result(self):
        best = None
        for p in self.procs:
            for r in p.runs:
                for v, bs in r.collected.items():
                    if len(bs) >= 1 and (best is None or len(set(bs)) > len(best[1])):
                        best = (v, set(bs))
        return best


@pytest.mark.parametrize("n,planted,seed", [(128, 32, 83), (512, 64, 5)])
def test_shared_degrees_match_per_guess_processors(n, planted, seed):
    pdf, _ = synth_data.general_graph_pandas(
        n=n, avg_deg=3.0, planted_deg=planted, seed=seed
    )
    sd = StarDetection(n, seed=seed, model="insertion_only")
    ref = PerGuessReference(n, sd.c, seed, sd.guesses)
    for proc in (sd, ref):
        run_stream_pandas(proc, pdf, batch_size=500)
    ref_runs = [r for p in ref.procs for r in p.runs]
    assert len(sd.runs) == len(ref_runs)
    for got, want in zip(sd.runs, ref_runs):
        params = (got.d1, got.d2, got.s, got.seed)
        assert params == (want.d1, want.d2, want.s, want.seed)
        assert got.collected == want.collected
        assert got.x == want.x
    assert sd.result() is not None
    assert sd.result() == ref.result()
    assert sd.space_words() == n + sum(r.space_words() for r in sd.runs)
    # one degree array in place of one per guess
    ref_words = sum(p.space_words() for p in ref.procs)
    assert sd.space_words() == ref_words - (len(sd.guesses) - 1) * n
