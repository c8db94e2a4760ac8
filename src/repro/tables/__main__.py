"""Print the paper's Tables 1-4 as measured on the synthetic profiles.

    python -m repro.tables {1,2,3,4,all} [--profiles NAME ...] [--sf F]

``--profiles`` picks datasets (all four by default) and ``--sf`` scales
each profile's entity counts. Arguments are checked before any Spark
session starts.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from ..kbgen import PROFILES
from . import format_rows, table1_rows, table2_rows, table3_rows, table4_rows

TABLES = {
    "1": ("Table 1 — dataset statistics (ours)", table1_rows),
    "2": ("Table 2 — block statistics (ours)", table2_rows),
    "3": ("Table 3 — effectiveness vs baselines (ours)", table3_rows),
    "4": ("Table 4 — matching-rule ablation (ours)", table4_rows),
}


def spark_session(app_name: str) -> SparkSession:
    """The session table runs use: 16 shuffle partitions, broadcast joins
    off (so shuffle joins are exercised), log level ERROR."""
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.tables", description=__doc__.splitlines()[0]
    )
    ap.add_argument("table", choices=[*TABLES, "all"])
    ap.add_argument("--profiles", nargs="+", choices=list(PROFILES), metavar="NAME")
    ap.add_argument("--sf", type=float, help="scale factor for every profile")
    args = ap.parse_args(argv)
    spark = spark_session("repro.tables")
    try:
        for key in TABLES if args.table == "all" else [args.table]:
            title, table_rows = TABLES[key]
            print(format_rows(title, table_rows(spark, profiles=args.profiles, sf=args.sf)))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
