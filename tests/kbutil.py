"""Helpers for building handcrafted KBs in tests."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.kbgen.generator import TRIPLE_SCHEMA


def kb(spark: SparkSession, rows: list[tuple]) -> DataFrame:
    """Build a triples DataFrame from (eid, attr, val, obj) tuples.

    ``val`` is None for relation rows, ``obj`` is None for literal rows.
    The rows go to Spark as Python values, not through pandas: pandas
    stores a column of ints and Nones as float64 with NaN, which the
    bigint ``obj`` column rejects unless Arrow happens to convert it.
    """
    return spark.createDataFrame(
        [
            (int(eid), attr, val, None if obj is None else int(obj))
            for eid, attr, val, obj in rows
        ],
        schema=TRIPLE_SCHEMA,
    )


def gt_df(spark: SparkSession, pairs: list[tuple[int, int]]) -> DataFrame:
    from repro.kbgen.generator import GT_SCHEMA

    return spark.createDataFrame(
        pd.DataFrame(pairs, columns=["eid1", "eid2"]), schema=GT_SCHEMA
    )
