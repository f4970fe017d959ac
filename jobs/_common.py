"""Shared entrypoint plumbing for the table jobs.

``jobs/run_table.py N`` is a ``spark-submit`` entrypoint that builds
table ``N`` from ``repro.tables`` and prints it. Run as e.g.::

    spark-submit jobs/run_table.py 1

or plain ``python jobs/run_table.py 1`` (local mode).
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(title: str, df: pd.DataFrame) -> None:
    pd.set_option("display.width", 200)
    print(f"\n=== {title} ===", file=sys.stdout)
    print(df.to_string(index=False))
