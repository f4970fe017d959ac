"""Single-pass micro-batch runner for sequential stream processors.

``StreamProcessor`` is the contract every streaming algorithm in this
reproduction implements: consume micro-batches in stream order, expose
the answer, the occupied space (in words — see ``repro.space``), and a
serializable memory state (used by the communication-protocol substrate
in ``repro.commlb`` to measure message sizes exactly as the paper's
reductions do: "send the resulting memory state to the next party").
"""
from __future__ import annotations

import pickle
from typing import Protocol, runtime_checkable

import pandas as pd
from pyspark.sql import DataFrame

from repro.streamsim.stream import iter_batches


@runtime_checkable
class StreamProcessor(Protocol):
    """A one-pass streaming algorithm over the canonical edge stream."""

    def process_batch(self, batch: pd.DataFrame) -> None:
        """Consume the next micro-batch (rows already in stream order)."""
        ...

    def space_words(self) -> int:
        """Current memory footprint in machine words."""
        ...


def run_stream(
    proc: StreamProcessor, df: DataFrame, batch_size: int = 65536
) -> StreamProcessor:
    """Feed ``df`` (canonical stream schema) through ``proc`` in order."""
    for batch in iter_batches(df, batch_size):
        proc.process_batch(batch)
    return proc


def run_stream_pandas(
    proc: StreamProcessor, pdf: pd.DataFrame, batch_size: int = 65536
) -> StreamProcessor:
    """Driver-side variant for already-collected streams (commlb parties)."""
    pdf = pdf.sort_values("pos").reset_index(drop=True)
    for lo in range(0, len(pdf), batch_size):
        proc.process_batch(pdf.iloc[lo : lo + batch_size].reset_index(drop=True))
    return proc


def checkpoint(proc: StreamProcessor) -> bytes:
    """Serialize a processor so another party can resume it."""
    return pickle.dumps(proc, protocol=pickle.HIGHEST_PROTOCOL)


def restore(blob: bytes) -> StreamProcessor:
    """Resume a processor from a serialized memory state."""
    return pickle.loads(blob)
