"""Infrastructure tests: the DuckDB oracle on generated KB triples.

The oracle must agree with Spark on correct results and catch wrong
ones, or the oracle checks elsewhere in the suite prove nothing.
"""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracle:
    def test_oracle_on_aggregation(self, micro_pair):
        t = micro_pair.triples1
        got = t.groupBy("attr").agg(
            F.countDistinct("eid").alias("subjects"),
            F.count("*").alias("cnt"),
        )
        assert_equivalent(
            got,
            """
            SELECT attr, count(DISTINCT eid) AS subjects, count(*) AS cnt
            FROM t GROUP BY attr
            """,
            t=t,
        )

    def test_oracle_on_join(self, micro_pair):
        t, gt = micro_pair.triples1, micro_pair.gt
        got = (
            t.join(gt, t.eid == gt.eid1)
            .groupBy("attr")
            .agg(F.count("*").alias("cnt"))
        )
        assert_equivalent(
            got,
            """
            SELECT attr, count(*) AS cnt
            FROM t JOIN gt ON eid = eid1
            GROUP BY attr
            """,
            t=t,
            gt=gt,
        )


class TestOracleHelper:
    def test_detects_wrong_result(self, micro_pair):
        t = micro_pair.triples1
        wrong = t.groupBy("attr").agg(
            (F.count("*") + 1).alias("cnt")  # off by one: oracle must catch
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT attr, count(*) AS cnt FROM t GROUP BY attr",
                t=t,
            )

    def test_detects_column_mismatch(self, micro_pair):
        t = micro_pair.triples1
        got = t.groupBy("attr").agg(F.count("*").alias("n"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got,
                "SELECT attr, count(*) AS cnt FROM t GROUP BY attr",
                t=t,
            )
