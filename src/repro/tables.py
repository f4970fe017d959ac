"""Experiment harnesses — one function per table in EXPERIMENTS.md.

The paper is a theory paper (no measured tables), so each table here
validates one of its quantitative claims: the function returns a pandas
DataFrame whose rows place the paper's predicted quantity (bound
formula evaluated at the experiment's parameters) next to the measured
value. ``jobs/run_table.py N`` prints these; ``benchmarks/bench_tableN.py``
time them; EXPERIMENTS.md records representative output.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import space, synth_data
from repro.commlb import augmented_matrix_row_index as amri
from repro.commlb import bit_vector_learning as bvl
from repro.commlb import set_disjointness as disj
from repro.core.exact_baseline import ExactND
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.insertion_only import InsertionOnlyND
from repro.core.l0_sampler import L0SamplerBank
from repro.core.misra_gries import MisraGriesWitness
from repro.core.star_detection import StarDetection
from repro.streamsim.runner import run_stream, run_stream_pandas
from repro.streamsim.stream import final_graph


# ---------------------------------------------------------------------- #
# Table 1 — insertion-only space & approximation vs c (Theorem 3.2)
# ---------------------------------------------------------------------- #

def table1(
    spark: SparkSession,
    n: int = 4096,
    d: int = 256,
    cs: tuple[int, ...] = (2, 3, 4, 6, 8),
    avg_deg: float = 8.0,
    seed: int = 0,
    batch_size: int = 65536,
) -> pd.DataFrame:
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=4 * n, d=d, avg_deg=avg_deg, order="random", seed=seed
    )
    df = spark.createDataFrame(pdf)
    nbrs = final_graph(pdf).groupby("a")["b"].apply(set)
    rows = []
    for c in cs:
        proc = run_stream(InsertionOnlyND(n, d, c, seed=seed + c), df, batch_size)
        res = proc.result()
        out_size = len(res[1]) if res else 0
        # the answer must be a neighborhood of the final graph, of size >= d/c
        valid = (
            res is not None
            and res[1] <= nbrs.get(res[0], set())
            and out_size >= max(1, d // c)
        )
        rows.append(
            {
                "c": c,
                "success": proc.succeeded(),
                "out_size": out_size,
                "required_d_over_c": max(1, d // c),
                "valid_output": bool(valid),
                "measured_words": proc.space_words(),
                "paper_bound_words": space.thm32_words(n, d, c),
                "exact_baseline_words": space.exact_words(n, d),
            }
        )
    out = pd.DataFrame(rows)
    out["saving_vs_exact"] = out["exact_baseline_words"] / out["measured_words"]
    return out


# ---------------------------------------------------------------------- #
# Table 2 — success probability (Lemma 3.1 / Theorem 3.2: >= 1 - 1/n)
# ---------------------------------------------------------------------- #

def table2(
    spark: SparkSession,
    n: int = 1024,
    d: int = 128,
    c: int = 4,
    trials: int = 20,
    orderings: tuple[str, ...] = ("random", "heavy_last", "heavy_first", "by_vertex"),
    profiles: tuple[str, ...] = ("uniform", "zipf"),
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for order in orderings:
        for profile in profiles:
            ok = 0
            sizes = []
            for t in range(trials):
                pdf, info = synth_data.planted_star_pandas(
                    n=n,
                    m=4 * n,
                    d=d,
                    avg_deg=6.0,
                    profile=profile,
                    order=order,
                    seed=seed + 7919 * t,
                )
                proc = run_stream_pandas(
                    InsertionOnlyND(n, d, c, seed=seed + t), pdf
                )
                if proc.succeeded():
                    ok += 1
                    sizes.append(len(proc.result()[1]))
            rows.append(
                {
                    "ordering": order,
                    "profile": profile,
                    "trials": trials,
                    "success_rate": ok / trials,
                    "paper_bound": 1 - 1 / n,
                    "mean_out_size": float(np.mean(sizes)) if sizes else 0.0,
                    "required": max(1, d // c),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 3 — insertion-deletion space & strategies vs c (Theorem 5.4)
# ---------------------------------------------------------------------- #

def table3(
    spark: SparkSession,
    n: int = 256,
    m: int = 512,
    d: int = 32,
    cs: tuple[int, ...] = (2, 4, 8, 16, 32),
    scenarios: tuple[str, ...] = ("one_heavy", "many_heavy"),
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for scen in scenarios:
        n_heavy = 1 if scen == "one_heavy" else max(2, n // 16)
        pdf, info = synth_data.turnstile_star_pandas(
            n=n, m=m, d=d, n_heavy=n_heavy, avg_deg=3.0, churn=0.5, seed=seed
        )
        for c in cs:
            proc = run_stream_pandas(
                InsertionDeletionND(n, m, d, c, seed=seed + c), pdf
            )
            res = proc.result()
            # attribute success to the strategy whose bank recovered it
            v_only = {}
            for slot, coord in enumerate(proc.vertex_bank.sample_all()):
                if coord >= 0:
                    v = int(proc.sampled_vertices[slot // proc.k_v])
                    v_only.setdefault(v, set()).add(int(coord))
            vertex_ok = any(len(s) >= proc.d_c for s in v_only.values())
            rows.append(
                {
                    "scenario": scen,
                    "c": c,
                    "regime": "c<=sqrt(n)" if c <= math.sqrt(n) else "c>sqrt(n)",
                    "success": res is not None,
                    "out_size": len(res[1]) if res else 0,
                    "required_d_over_c": proc.d_c,
                    "vertex_strategy_ok": bool(vertex_ok),
                    "measured_words": proc.space_words(),
                    "paper_bound_words": round(space.thm54_words(n, d, c)),
                    "ins_only_bound_words": space.thm32_words(n, d, c),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 4 — l0-sampler quality
# ---------------------------------------------------------------------- #

def table4(
    spark: SparkSession,
    dims: tuple[int, ...] = (1 << 10, 1 << 14, 1 << 17),
    support: int = 64,
    num_samplers: int = 512,
    churn: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for dim in dims:
        g = np.random.default_rng(seed + dim)
        alive = g.choice(dim, size=support, replace=False)
        dead = g.choice(np.setdiff1d(np.arange(dim), alive, assume_unique=False),
                        size=int(support * churn), replace=False)
        bank = L0SamplerBank(num_samplers, dim, seed=seed)
        bank.update(np.concatenate([alive, dead]), 1)
        bank.update(dead, -1)  # delete the churned half
        rec = bank.sample_all()
        ok = rec[rec >= 0]
        in_support = np.isin(ok, alive).mean() if len(ok) else 0.0
        # total-variation distance of the empirical sample distribution
        # from uniform over the support
        counts = pd.Series(ok).value_counts().reindex(alive, fill_value=0)
        tv = float(np.abs(counts / max(len(ok), 1) - 1 / support).sum() / 2)
        rows.append(
            {
                "dim": dim,
                "support": support,
                "samplers": num_samplers,
                "success_rate": len(ok) / num_samplers,
                "recovered_in_support": float(in_support),
                "tv_from_uniform": tv,
                "cells_per_sampler": 3 * bank.L,
                "paper_cells_log2dim": round(math.log2(dim) ** 2),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 5 — lower-bound reductions, run constructively
# ---------------------------------------------------------------------- #

def table5(
    spark: SparkSession,
    bvl_params: tuple[tuple[int, int, int, int], ...] = (
        # (p, n, k, c)
        (3, 256, 16, 2),
        (4, 512, 16, 3),
        (5, 625, 16, 4),
    ),
    disj_params: tuple[tuple[int, int, int], ...] = ((3, 128, 4), (4, 128, 6)),
    amri_params: tuple[tuple[int, int, int], ...] = ((24, 16, 2),),
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for p, n, k, c in bvl_params:
        inst = bvl.make_instance(p, n, k, seed=seed)
        out = bvl.solve_with_algorithm(inst, c=c, seed=seed)
        lb_bits = space.thm48_lb_words(n, d=k * p, c=c, p=p)
        rows.append(
            {
                "problem": "bit-vector-learning",
                "params": f"p={p},n={n},k={k},c={c}",
                "solved": out["success"],
                "detail": f"bits={out['bits_correct']}/{out['bits_required']}",
                "measured_msg_bytes": out["max_msg_bytes"],
                "lb_formula_words": round(lb_bits),
            }
        )
    for p, n, k in disj_params:
        for intersecting in (False, True):
            inst = disj.make_instance(
                p, n, set_size=8, intersecting=intersecting, seed=seed
            )
            out = disj.solve_with_algorithm(inst, k=k, c=p - 1, seed=seed)
            rows.append(
                {
                    "problem": "set-disjointness",
                    "params": f"p={p},n={n},k={k},int={intersecting}",
                    "solved": out["correct"],
                    "detail": f"max_nbhd={out['max_neighborhood']}",
                    "measured_msg_bytes": out["max_msg_bytes"],
                    "lb_formula_words": round(n / p**2),
                }
            )
    for n, d, c in amri_params:
        inst = amri.make_instance(n, 2 * d, max(1, d // c - 1), seed=seed)
        out = amri.solve_with_algorithm(inst, c=c, seed=seed)
        rows.append(
            {
                "problem": "augmented-matrix-row-index",
                "params": f"n={n},d={d},c={c}",
                "solved": out["correct"],
                "detail": f"ones={out['ones_learned']},zeros={out['zeros_learned']}",
                "measured_msg_bytes": out["message_bytes"],
                "lb_formula_words": round(space.thm64_lb_words(n, d, c)),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 6 — Star Detection (Corollaries 3.3 and 5.5)
# ---------------------------------------------------------------------- #

def table6(
    spark: SparkSession,
    ns: tuple[int, ...] = (512, 2048),
    seed: int = 0,
) -> pd.DataFrame:
    # (model, n, avg_deg, planted_deg, c, budget); turnstile (Cor. 5.5) at small n
    configs = [
        ("insertion_only", n, 4.0, n // 8, None, round(n * math.log(n) ** 2))
        for n in ns
    ]
    configs.append(("turnstile", 128, 3.0, 32, 4, round(128**1.5 * math.log(128))))
    rows = []
    for model, n, avg_deg, planted_deg, c, budget in configs:
        pdf, info = synth_data.general_graph_pandas(
            n=n, avg_deg=avg_deg, planted_deg=planted_deg, seed=seed
        )
        sd = StarDetection(n, c=c, eps=1.0, seed=seed, model=model)
        run_stream_pandas(sd, pdf)
        res = sd.result()
        found = len(res[1]) if res else 0
        # leaves form a set (distinct); each must be an input edge (u < v)
        edges = set(zip(pdf["u"].tolist(), pdf["v"].tolist()))
        valid = res is not None and all(
            (min(res[0], b), max(res[0], b)) in edges for b in res[1]
        )
        rows.append(
            {
                "model": model,
                "n": n,
                "true_delta": info["delta"],
                "found_star": found,
                "valid_output": bool(valid),
                "approx_ratio": info["delta"] / max(found, 1),
                "paper_guarantee": (1 + sd.eps) * sd.c,
                "measured_words": sd.space_words(),
                "semi_streaming_budget": budget,
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 7 — witness applications (frequent elements with witnesses)
# ---------------------------------------------------------------------- #

def table7(
    spark: SparkSession,
    n_events: int = 100_000,
    attack_frac: float = 0.05,
    cs: tuple[int, ...] = (2, 4),
    seed: int = 0,
) -> pd.DataFrame:
    from repro.apps import db_hotkeys, dos_detection

    rows = []
    n_dst = 2000
    log_df, info = synth_data.router_log(
        spark, n_events=n_events, n_dst=n_dst, attack_frac=attack_frac, seed=seed
    )
    log_df = log_df.cache()
    d = int(n_events * attack_frac)
    stream_pdf = dos_detection.log_to_stream(log_df).toPandas()
    for c in cs:
        res, proc = dos_detection.detect_dos(log_df, n_dst, d, c, seed=seed)
        wit_ok = res is not None and res[1] <= info["attack_ts"]
        rows.append(
            {
                "app": "dos",
                "method": f"neighborhood-detection c={c}",
                "target_found": res is not None and res[0] == info["target"],
                "witnesses": len(res[1]) if res else 0,
                "witness_guarantee": max(1, d // c),
                "witnesses_valid": bool(wit_ok),
                "space_words": proc.space_words(),
            }
        )
    # witness-augmented Misra-Gries baseline: item found, witnesses best-effort
    mg = MisraGriesWitness(k=64, w=max(1, d // 2))
    run_stream_pandas(mg, stream_pdf)
    mg_wit = set(mg.witnesses_of(info["target"]))
    rows.append(
        {
            "app": "dos",
            "method": "misra-gries+witnesses k=64",
            "target_found": info["target"] in mg.heavy_hitters(d),
            "witnesses": len(mg_wit & info["attack_ts"]),
            "witness_guarantee": 0,
            "witnesses_valid": mg_wit <= info["attack_ts"],
            "space_words": mg.space_words(),
        }
    )
    exact = ExactND(n_dst, d)
    run_stream_pandas(exact, stream_pdf)
    rows.append(
        {
            "app": "dos",
            "method": "exact O(nd) baseline",
            "target_found": exact.result()[0] == info["target"],
            "witnesses": len(exact.neighborhood(info["target"]) & info["attack_ts"]),
            "witness_guarantee": d,
            "witnesses_valid": True,
            "space_words": exact.space_words(),
        }
    )
    log_df.unpersist()
    # adversarial early-burst attack: all attack events early, then a
    # distinct-destination flood. Element-wise Misra-Gries (fine batches)
    # evicts the target mid-stream and loses its witnesses; Algorithm 2's
    # d/c witness guarantee is oblivious to stream order.
    bl_df, bl_info = synth_data.router_log(
        spark,
        n_events=n_events,
        n_dst=n_dst,
        attack_frac=0.01,
        attack_pattern="early_burst",
        seed=seed + 1,
    )
    bl_df = bl_df.cache()
    d_b = int(n_events * 0.01)
    res, proc = dos_detection.detect_dos(bl_df, n_dst, d_b, 2, seed=seed)
    rows.append(
        {
            "app": "dos-early-burst",
            "method": "neighborhood-detection c=2",
            "target_found": res is not None and res[0] == bl_info["target"],
            "witnesses": len(res[1] & bl_info["attack_ts"]) if res else 0,
            "witness_guarantee": max(1, d_b // 2),
            "witnesses_valid": res is not None and res[1] <= bl_info["attack_ts"],
            "space_words": proc.space_words(),
        }
    )
    mg_b = MisraGriesWitness(k=16, w=max(1, d_b // 2))
    bl_stream = dos_detection.log_to_stream(bl_df).toPandas()
    run_stream_pandas(mg_b, bl_stream, batch_size=64)  # ~element-wise MG
    mgb_wit = set(mg_b.witnesses_of(bl_info["target"]))
    rows.append(
        {
            "app": "dos-early-burst",
            "method": "misra-gries+witnesses k=16",
            "target_found": bl_info["target"] in mg_b.counters,
            "witnesses": len(mgb_wit & bl_info["attack_ts"]),
            "witness_guarantee": 0,
            "witnesses_valid": mgb_wit <= bl_info["attack_ts"],
            "space_words": mg_b.space_words(),
        }
    )
    bl_df.unpersist()
    # database hot-keys application
    n_keys = 5000
    db_df, db_info = synth_data.db_update_log(
        spark, n_events=n_events // 2, n_keys=n_keys, seed=seed
    )
    db_df = db_df.cache()
    d_db = int((n_events // 2) * 0.03)
    res, proc = db_hotkeys.detect_hot_keys(db_df, n_keys, d_db, c=2, seed=seed)
    # the guarantee is on witness *transactions* (edges); users dedup
    db_pdf = db_df.toPandas()
    key_txns = (
        set(db_pdf.loc[db_pdf["key"] == res[0], "txn"]) if res else set()
    )
    rows.append(
        {
            "app": "db-hotkeys",
            "method": "neighborhood-detection c=2",
            "target_found": res is not None and res[0] in db_info["hot_keys"],
            "witnesses": len(res[1]) if res else 0,
            "witness_guarantee": max(1, d_db // 2),
            "witnesses_valid": res is not None and res[1] <= key_txns,
            "space_words": proc.space_words(),
        }
    )
    db_df.unpersist()
    return pd.DataFrame(rows)
