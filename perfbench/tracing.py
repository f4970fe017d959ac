"""Per-layer spans and counters, recorded from outside the program.

Nothing under ``src/`` is instrumented: spans are timed around calls
into each module's public functions, instance methods of the processor
under test are wrapped for the duration of one query, and Spark work is
tagged with a job group per layer so that job, stage and task counts
can be read back through the status tracker.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_TERMINAL = {"SUCCEEDED", "FAILED"}


class Tracer:
    """Accumulates span seconds and counters by layer name."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._groups: set[str] = set()

    @contextmanager
    def span(self, layer: str, spark_group: bool = False):
        """Time the enclosed call; tag its Spark jobs with ``layer``."""
        if spark_group:
            self.sc.setJobGroup(f"perfbench:{layer}", layer)
            self._groups.add(f"perfbench:{layer}")
        t = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += time.perf_counter() - t
            if spark_group:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    @contextmanager
    def wrapped(self, obj, method: str, layer: str, on_call=None):
        """Time every ``obj.method`` call as ``layer`` while inside the block.

        The wrapper is an instance attribute that shadows the class
        method, so the processor's own calls go through it; it is
        removed on exit, leaving the object picklable again.
        """
        fn = getattr(obj, method)

        def timed(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[layer] += time.perf_counter() - t
            if on_call is not None:
                on_call(out, *args, **kwargs)
            return out

        setattr(obj, method, timed)
        try:
            yield
        finally:
            delattr(obj, method)

    def spark_counts(self, timeout_s: float = 10.0) -> dict[str, int]:
        """Jobs, stages, tasks run and tasks failed under the traced groups."""
        st = self.sc.statusTracker()
        deadline = time.monotonic() + timeout_s
        while True:
            jobs = [
                st.getJobInfo(j)
                for g in sorted(self._groups)
                for j in st.getJobIdsForGroup(g)
            ]
            if all(j is not None and j.status in _TERMINAL for j in jobs):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("Spark status tracker did not settle")
            time.sleep(0.1)
        out = {"jobs": len(jobs), "stages": 0, "tasks": 0, "failed_tasks": 0}
        for j in jobs:
            for sid in j.stageIds:
                s = st.getStageInfo(sid)
                if s is None or s.numCompletedTasks + s.numFailedTasks == 0:
                    continue  # skipped: its shuffle output was reused
                out["stages"] += 1
                out["tasks"] += s.numCompletedTasks + s.numFailedTasks
                out["failed_tasks"] += s.numFailedTasks
        return out
