"""The benchmark's workloads: inputs from ``repro.synth_data``, answers
from the public entry points of the layers below.

Each workload prepares one input per set-up (generation, then a cached
Spark DataFrame or a directory of event files), answers queries on it,
and checks every answer against an oracle built from the same input.
A query is one c-query on the graph workloads and one streaming query
over all event files on ``witness-stream``. ``query(..., tracer=None)``
goes through the entry point a user calls; with a tracer it drives the
layers one call at a time so each can be timed and counted.
"""
from __future__ import annotations

import inspect
import os
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql.streaming import StreamingQueryListener

from check import (
    check_neighborhood,
    check_witness_state,
    final_neighbors,
    witness_oracle,
)
from repro import synth_data
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.insertion_only import InsertionOnlyND, run_distributed
from repro.streamsim import structured
from repro.streamsim.runner import checkpoint, run_stream
from repro.streamsim.stream import iter_batches, stream_from_pandas

# The batch size and partition count the entry points use by default,
# read from their signatures so the traced path cannot drift from them.
BATCH_SIZE = inspect.signature(run_stream).parameters["batch_size"].default
DIST_PARTITIONS = inspect.signature(run_distributed).parameters["num_partitions"].default


@dataclass
class Outcome:
    """One answered query, with what the end-to-end metrics need."""

    answer: object
    space_words: int
    state_bytes: int | None = None  # None: measure len(checkpoint(state))
    state: object = None
    microbatch_s: list[float] | None = None  # per-answer latency, if finer

    def checkpoint_bytes(self) -> int:
        if self.state_bytes is None:
            self.state_bytes = len(checkpoint(self.state))
        return self.state_bytes


@dataclass
class Prepared:
    spark: object
    seed: int
    pdf: pd.DataFrame
    df: object = None
    oracle: object = None
    extra: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t


def _cache_stream(spark, pdf: pd.DataFrame):
    df = stream_from_pandas(spark, pdf).cache()
    df.count()
    return df


# ---------------------------------------------------------------------- #
# Graph workloads
# ---------------------------------------------------------------------- #


class _GraphWorkload:
    """Shared set-up and checking for the Neighborhood Detection streams."""

    name: str
    cs: tuple[int, ...]
    min_cycles: int
    # The JVM keeps compiling Spark's hot paths through the first few
    # seconds of queries; these whole cycles (7-14 s) run before timing.
    warm_up_cycles: int
    n: int
    m: int
    d: int

    def generate(self, seed: int) -> pd.DataFrame:
        raise NotImplementedError

    def prepare(self, spark, seed: int, workdir: str) -> tuple[Prepared, dict]:
        pdf, gen_s = _timed(self.generate, seed)
        df, create_s = _timed(_cache_stream, spark, pdf)
        times = {"synth_data.gen_s": gen_s, "stream.create_df_s": create_s}
        return Prepared(spark, seed, pdf, df), times

    def build_oracle(self, prep: Prepared) -> None:
        prep.oracle = final_neighbors(prep.pdf)

    def edges(self, prep: Prepared) -> int:
        return len(prep.pdf)

    def warm_up(self, prep: Prepared) -> None:
        for c in self.cs:
            self.query(prep, c, None)

    def check(self, prep: Prepared, c: int, out: Outcome) -> str | None:
        return check_neighborhood(out.answer, prep.oracle, max(1, self.d // c))

    def finish(self, prep: Prepared) -> None:
        prep.df.unpersist()

    def _drive(self, prep: Prepared, proc, tracer, process_layer: str) -> None:
        """Traced ``run_stream``: collect, then one process_batch per batch,
        recording the peak ``space_words()`` seen after any batch."""
        batches = iter_batches(prep.df, BATCH_SIZE)
        peak = 0
        while True:
            with tracer.span("stream.collect_s", spark_group=True):
                batch = next(batches, None)
            if batch is None:
                break
            tracer.add("stream.rows_collected", len(batch))
            with tracer.span(process_layer):
                proc.process_batch(batch)
            peak = max(peak, proc.space_words())
        tracer.add("stream.collects", 1)
        tracer.add("runner.peak_space_words", peak)

    def _trace_checkpoint(self, tracer, state) -> int:
        with tracer.span("runner.checkpoint_s"):
            return len(checkpoint(state))


class NDInsertion(_GraphWorkload):
    name = "nd-insertion"
    cs = (2, 4, 8)
    min_cycles = 15
    warm_up_cycles = 7
    n, d, avg_deg = 4096, 256, 8.0  # the Table 1 instance
    m = 4 * n

    def generate(self, seed: int) -> pd.DataFrame:
        pdf, _ = synth_data.planted_star_pandas(
            n=self.n, m=self.m, d=self.d, avg_deg=self.avg_deg,
            order="random", seed=seed,
        )
        return pdf

    def query(self, prep: Prepared, c: int, tracer) -> Outcome:
        proc = InsertionOnlyND(self.n, self.d, c, seed=prep.seed + c)
        if tracer is None:
            run_stream(proc, prep.df)
            return Outcome(proc.result(), proc.space_words(), state=proc)

        def count_candidates(_out, _a, _b, cand_rows):
            tracer.add("deg_res_sampling.candidates", len(cand_rows))

        with ExitStack() as stack:
            for run in proc.runs:
                stack.enter_context(
                    tracer.wrapped(run, "ingest", "deg_res_sampling.ingest_s",
                                   count_candidates)
                )
            self._drive(prep, proc, tracer, "insertion_only.process_batch_s")
        with tracer.span("insertion_only.result_s"):
            answer = proc.result()
        collected = useful = 0
        for run in proc.runs:
            tracer.add("deg_res_sampling.reservoir_slots", run.s)
            tracer.add("deg_res_sampling.reservoir_members", len(run.reservoir))
            sizes = [len(bs) for bs in run.neighborhoods().values()]
            collected += sum(sizes)
            useful += sum(k for k in sizes if k >= run.d2)
        tracer.add("deg_res_sampling.collected_edges", collected)
        tracer.add("deg_res_sampling.useful_edges", useful)
        state_bytes = self._trace_checkpoint(tracer, proc)
        return Outcome(answer, proc.space_words(), state_bytes)


class NDDistributed(NDInsertion):
    name = "nd-distributed"
    min_cycles = 8
    warm_up_cycles = 4

    def query(self, prep: Prepared, c: int, tracer) -> Outcome:
        if tracer is None:
            out = run_distributed(prep.df, self.n, self.d, c, seed=prep.seed + c)
            return Outcome(out["result"], out["space_words"], state=out)
        with tracer.span("insertion_only.run_distributed_s", spark_group=True):
            out = run_distributed(prep.df, self.n, self.d, c, seed=prep.seed + c)
        tracer.add("runner.peak_space_words", out["space_words"])
        state_bytes = self._trace_checkpoint(tracer, out)
        return Outcome(out["result"], out["space_words"], state_bytes)

    def partition_skew(self, prep: Prepared) -> float:
        """Max over mean rows per ``pmod(a, P)`` partition of the input."""
        rows = np.bincount(prep.pdf["a"].to_numpy() % DIST_PARTITIONS,
                           minlength=DIST_PARTITIONS)
        return float(rows.max() / rows.mean())


class NDTurnstile(_GraphWorkload):
    name = "nd-turnstile"
    cs = (2, 4, 8, 16)
    min_cycles = 8
    warm_up_cycles = 4
    n, m, d, avg_deg, churn = 128, 256, 32, 3.0, 0.5

    def generate(self, seed: int) -> pd.DataFrame:
        pdf, _ = synth_data.turnstile_star_pandas(
            n=self.n, m=self.m, d=self.d, avg_deg=self.avg_deg,
            churn=self.churn, seed=seed,
        )
        return pdf

    def query(self, prep: Prepared, c: int, tracer) -> Outcome:
        if tracer is None:
            proc = run_stream(
                InsertionDeletionND(self.n, self.m, self.d, c, seed=prep.seed + c),
                prep.df,
            )
            return Outcome(proc.result(), proc.space_words(), state=proc)
        with tracer.span("insertion_deletion.init_s"):
            proc = InsertionDeletionND(self.n, self.m, self.d, c, seed=prep.seed + c)

        def count_update(bank):
            def on_call(_out, idx, delta=1, rows=None, **_):
                samplers = bank.num if rows is None else np.arange(bank.num)[rows].size
                tracer.add("l0_sampler.update_calls", 1)
                tracer.add("l0_sampler.cells", samplers * len(idx))
            return on_call

        def count_recovery(out):
            tracer.add("l0_sampler.recovered", int((out >= 0).sum()))
            tracer.add("l0_sampler.queried", len(out))

        with ExitStack() as stack:
            for bank in (proc.vertex_bank, proc.edge_bank):
                stack.enter_context(tracer.wrapped(
                    bank, "update", "l0_sampler.update_s", count_update(bank)))
                stack.enter_context(tracer.wrapped(
                    bank, "sample_all", "l0_sampler.sample_all_s", count_recovery))
            self._drive(prep, proc, tracer, "insertion_deletion.process_batch_s")
            with tracer.span("insertion_deletion.result_s"):
                answer = proc.result()
        state_bytes = self._trace_checkpoint(tracer, proc)
        return Outcome(answer, proc.space_words(), state_bytes)


# ---------------------------------------------------------------------- #
# Structured Streaming witness operator
# ---------------------------------------------------------------------- #


class _ProgressListener(StreamingQueryListener):
    """Collects ``StreamingQueryProgress`` per query name."""

    def __init__(self) -> None:
        self.progress: dict[str, list] = {}
        self.done: dict[str, threading.Event] = {}
        self._names: dict[str, str] = {}
        self._lock = threading.Lock()

    def expect(self, name: str) -> threading.Event:
        with self._lock:
            self.progress[name] = []
            self.done[name] = threading.Event()
            return self.done[name]

    def onQueryStarted(self, event) -> None:
        with self._lock:
            self._names[str(event.id)] = event.name

    def onQueryProgress(self, event) -> None:
        p = event.progress
        with self._lock:
            if p.name in self.progress:
                self.progress[p.name].append(p)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        with self._lock:
            name = self._names.pop(str(event.id), None)
            if name in self.done:
                self.done[name].set()


class WitnessStream:
    """Router-log events through ``structured.run_witness_query``."""

    name = "witness-stream"
    cs = (16,)  # the witness buffer size w; one query per cycle
    min_cycles = 1
    warm_up_cycles = 1
    n_events, n_dst, n_files = 20_000, 2_000, 4

    def prepare(self, spark, seed: int, workdir: str) -> tuple[Prepared, dict]:
        def gen():
            log, _ = synth_data.router_log(
                spark, n_events=self.n_events, n_dst=self.n_dst, seed=seed
            )
            ev = log.toPandas()
            return pd.DataFrame(
                {"ts": ev["ts"], "item": ev["dst"], "witness": ev["ts"]}
            ).astype("int64")

        events, gen_s = _timed(gen)
        in_dir = os.path.join(workdir, "events")
        _, write_s = _timed(structured.write_event_files, events, in_dir, self.n_files)
        listener = _ProgressListener()
        spark.streams.addListener(listener)
        prep = Prepared(spark, seed, events)
        prep.extra.update(in_dir=in_dir, workdir=workdir, listener=listener, queries=0)
        return prep, {"synth_data.gen_s": gen_s, "structured.write_files_s": write_s}

    def build_oracle(self, prep: Prepared) -> None:
        prep.oracle = witness_oracle(prep.pdf, self.cs[0])

    def edges(self, prep: Prepared) -> int:
        return len(prep.pdf)

    def warm_up(self, prep: Prepared) -> None:
        warm = os.path.join(prep.extra["workdir"], "warm-up")
        structured.write_event_files(prep.pdf.head(len(prep.pdf) // self.n_files), warm, 1)
        self._run(prep, warm, None)

    def check(self, prep: Prepared, c: int, out: Outcome) -> str | None:
        return check_witness_state(out.answer, prep.oracle)

    def query(self, prep: Prepared, c: int, tracer) -> Outcome:
        return self._run(prep, prep.extra["in_dir"], tracer)

    def _run(self, prep: Prepared, in_dir: str, tracer) -> Outcome:
        spark, listener = prep.spark, prep.extra["listener"]
        prep.extra["queries"] += 1
        q = prep.extra["queries"]
        name = f"perfbench_w{os.getpid()}_{q}"
        cp = os.path.join(prep.extra["workdir"], f"checkpoint-{q}")
        done = listener.expect(name)
        updates = structured.run_witness_query(spark, in_dir, cp, name, w=self.cs[0])
        if tracer is None:
            final = structured.final_state(updates)
        else:
            with tracer.span("structured.final_state_s"):
                final = structured.final_state(updates)
        if not done.wait(60):
            raise RuntimeError(f"no termination event for streaming query {name}")
        spark.catalog.dropTempView(name)
        progress = listener.progress.pop(name)
        state = progress[-1].stateOperators[0]
        if tracer is not None:
            tracer.add("structured.microbatches", len(progress))
            for key, metric in (("triggerExecution", "structured.trigger_ms"),
                                ("addBatch", "structured.add_batch_ms"),
                                ("queryPlanning", "structured.planning_ms"),
                                ("commitOffsets", "structured.commit_ms")):
                tracer.add(metric, sum(p.durationMs.get(key, 0) for p in progress))
            tracer.add("structured.state_rows", state.numRowsTotal)
            tracer.add("structured.state_memory_bytes", state.memoryUsedBytes)
            tracer.add("structured.state_partitions", state.numShufflePartitions)
        words = int(sum(2 + len(w) for w in final["witnesses"]))
        return Outcome(final, words, state.memoryUsedBytes,
                       microbatch_s=[p.batchDuration / 1000.0 for p in progress])

    def finish(self, prep: Prepared) -> None:
        prep.spark.streams.removeListener(prep.extra["listener"])


WORKLOADS = {w.name: w for w in (NDInsertion(), NDDistributed(), NDTurnstile(), WitnessStream())}
