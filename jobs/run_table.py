"""Print one EXPERIMENTS.md table: ``python jobs/run_table.py N``, N in 1-7.

spark-submit entrypoint; see DESIGN.md table index and EXPERIMENTS.md.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import emit, get_spark

from repro import tables

TITLES = {
    1: "Table 1 - insertion-only space & approximation vs c (Thm 3.2)",
    2: "Table 2 - success probability vs the 1-1/n bound (Lemma 3.1/Thm 3.2)",
    3: "Table 3 - insertion-deletion space & strategies vs c (Thm 5.4)",
    4: "Table 4 - l0-sampler quality (substrate of Alg. 3)",
    5: "Table 5 - lower-bound reductions run constructively (Thms 4.1/4.8/6.4)",
    6: "Table 6 - Star Detection (Cors 3.3/5.5)",
    7: "Table 7 - frequent elements with witnesses: applications",
}


def main() -> None:
    arg = sys.argv[1] if len(sys.argv) == 2 else ""
    n = int(arg) if arg.isdigit() else 0
    if n not in TITLES:
        sys.exit(f"usage: {sys.argv[0]} N   (N in 1-{len(TITLES)})")
    spark = get_spark(f"table{n}")
    emit(TITLES[n], getattr(tables, f"table{n}")(spark))
    spark.stop()


if __name__ == "__main__":
    main()
