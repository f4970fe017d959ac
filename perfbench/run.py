"""Repository benchmark: Neighborhood Detection end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload nd-insertion --seed 0 --seconds 10 --trace 0

Workloads are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer split with
the tracing overhead. Every answer is checked against the final graph
of the generated input. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the full report: run environment, set-up breakdown,
sample counts and every metric measured, listed or not.

Load is a closed loop: one driver process issues one query at a time to
Spark ``local[k]``. The program is imported from ``src/`` of the
checkout the command runs in; scratch files live under
``.perfbench_work/`` there and are removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
HELDOUT_SEED = 7919  # never used while the benchmark was tuned

SPARK_CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
# The session config of jobs/_common.get_spark, pinned here and used
# unchanged for every workload.
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
SETUP_REPS = 3
TAIL_BEYOND = 10


def pin_environment(work: Path) -> None:
    """Point the driver, the JVM and its Python workers at this checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    for sub in ("tmp", "spark-local"):
        (work / sub).mkdir(parents=True)
    # No hsperfdata under the system /tmp: the JVM writes only in ``work``.
    java_opts = shlex.quote(f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData")
    os.environ.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        TMPDIR=str(work / "tmp"),
        SPARK_LOCAL_DIRS=str(work / "spark-local"),
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{SPARK_CORES}] --driver-memory {DRIVER_MEMORY} "
            f"--driver-java-options {java_opts} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "pyspark-shell"
        ),
    )


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    return builder.getOrCreate()


def stop_jvm(spark) -> None:
    """Stop Spark and wait for the gateway JVM (and its workers) to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    gateway.proc.stdin.close()  # the JVM exits when its stdin closes
    gateway.proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def environment(spark) -> dict:
    import numpy
    import pandas
    import pyspark

    sc = spark.sparkContext
    return {
        "master": sc.master,
        "cores": sc.defaultParallelism,
        "host_cpus": os.cpu_count(),
        "driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
        "session_conf": {k: spark.conf.get(k) for k in SESSION_CONF},
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "load": f"closed loop, 1 driver client, local[{SPARK_CORES}]",
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Nearest rank over sorted samples. With 20 samples or fewer no
    percentile above the median qualifies; the maximum is given.
    """
    xs = sorted(samples)
    if len(xs) <= 2 * TAIL_BEYOND:
        return 100.0, xs[-1]
    rank = len(xs) - TAIL_BEYOND  # 1-based
    return 100.0 * rank / len(xs), xs[rank - 1]


def measure(wl, prep, seconds: float, tracer) -> dict:
    """Closed loop of whole cycles over ``wl.cs`` for at least ``seconds``.

    Throughput is the median over cycles, so a stall of a few seconds on
    a shared machine moves it little. Latency statistics use the last
    ``min_cycles`` cycles only, so the percentile the tail reports does
    not move with the program's speed.
    """
    per_cycle, cycle_s, failures, last = [], [], [], []
    attempted = cycles = 0
    t0 = time.perf_counter()
    while cycles < wl.min_cycles or time.perf_counter() - t0 < seconds:
        last, samples = [], []
        tc = time.perf_counter()
        for c in wl.cs:
            t = time.perf_counter()
            out = wl.query(prep, c, tracer)
            err = wl.check(prep, c, out)
            dt = time.perf_counter() - t
            attempted += 1
            if err is not None:
                failures.append(f"cycle {cycles} c={c}: {err}")
                print(f"perfbench: INVALID {wl.name} seed={prep.seed} c={c}: {err}",
                      file=sys.stderr)
            samples.extend(out.microbatch_s or [dt])
            last.append(out)
        cycle_s.append(time.perf_counter() - tc)
        per_cycle.append(samples)
        cycles += 1
    window = time.perf_counter() - t0
    return {
        "cycles": cycles,
        "attempted": attempted,
        "failures": failures,
        "window_s": window,
        "edges_per_s": wl.edges(prep) * len(wl.cs) / statistics.median(cycle_s),
        "latencies": [x for s in per_cycle[-wl.min_cycles:] for x in s],
        "space_words": sum(o.space_words for o in last),
        "state_bytes": sum(o.checkpoint_bytes() for o in last),
    }


def per_layer(tracer, cycles: int, setup_layers: dict, wl, prep) -> dict:
    """Per-cycle layer metrics from a traced window."""
    s, n = tracer.seconds, tracer.counts
    out = {k: v / cycles for k, v in s.items()}
    out.update({k: v / cycles for k, v in n.items()})
    out.update({f"spark.{k}": v / cycles for k, v in tracer.spark_counts().items()})

    def ratio(num, den):
        return n[num] / n[den] if n[den] else 0.0

    out["deg_res_sampling.reservoir_fill"] = ratio(
        "deg_res_sampling.reservoir_members", "deg_res_sampling.reservoir_slots")
    out["deg_res_sampling.useful_frac"] = ratio(
        "deg_res_sampling.useful_edges", "deg_res_sampling.collected_edges")
    out["l0_sampler.recovery_frac"] = ratio("l0_sampler.recovered", "l0_sampler.queried")
    out["insertion_only.partition_skew"] = (
        wl.partition_skew(prep) if hasattr(wl, "partition_skew") else 0.0)
    out.update(setup_layers)
    return out


def run(args) -> tuple[dict, dict]:
    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    spark = None
    try:
        pin_environment(work)
        from tracing import Tracer
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                             f"one of {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload]
        setups = []
        for rep in range(SETUP_REPS):
            if spark is not None:
                wl.finish(prep)
                spark.stop()
            t = time.perf_counter()
            spark = start_session()
            times = {"session_s": time.perf_counter() - t}
            prep, layer_times = wl.prepare(spark, args.seed, str(work / f"setup-{rep}"))
            times.update(layer_times)
            times["total_s"] = sum(times.values())
            setups.append(times)
        t = time.perf_counter()
        for _ in range(wl.warm_up_cycles):
            wl.warm_up(prep)
        warm_up_s = time.perf_counter() - t
        wl.build_oracle(prep)
        env = environment(spark)

        untraced = measure(wl, prep, args.seconds, None)
        traced = tracer = None
        if args.trace:
            tracer = Tracer(spark)
            traced = measure(wl, prep, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tail_pct, tail_s = tail(untraced["latencies"])
        metrics = {
            "setup_s": statistics.median(s["total_s"] for s in setups) + warm_up_s,
            "edges_per_s": untraced["edges_per_s"],
            "latency_s": statistics.median(untraced["latencies"]),
            "latency_s_tail": tail_s,
            "valid_frac": 1 - len(untraced["failures"]) / untraced["attempted"],
            "space_words": untraced["space_words"],
            "state_bytes": untraced["state_bytes"],
            "driver_peak_rss_mb": peak_rss_mb,
        }
        runs = [untraced]
        if traced is not None:
            setup_layers = {
                k: statistics.median(s[k] for s in setups)
                for k in setups[0] if "." in k
            }
            metrics.update(per_layer(tracer, traced["cycles"], setup_layers, wl, prep))
            metrics["trace.edges_per_s"] = traced["edges_per_s"]
            metrics["trace.overhead_frac"] = (
                untraced["edges_per_s"] / traced["edges_per_s"] - 1)
            runs.append(traced)
        wl.finish(prep)
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "default_seed": DEFAULT_SEED,
            "heldout_seed": HELDOUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "setups": setups,
            "warm_up_s": warm_up_s,
            "cycles": untraced["cycles"],
            "answers": untraced["attempted"],
            "window_s": untraced["window_s"],
            "latency_samples": len(untraced["latencies"]),
            "latency_tail_pct": tail_pct,
            "latencies_s": untraced["latencies"],
            "failures": [f for r in runs for f in r["failures"]],
            "metrics": metrics,
        }
        summary = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(len(r["failures"]) for r in runs),
        }
        return report, summary
    finally:
        if spark is not None:
            stop_jvm(spark)
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    report, summary = run(args)
    measured = report["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing and not args.trace:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    # A layer the workload never calls reads 0 (e.g. l0 on nd-insertion).
    report["layers_not_called"] = missing
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in listed
        },
    }))


if __name__ == "__main__":
    main()
