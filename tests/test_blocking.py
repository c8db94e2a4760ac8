"""Unit tests for blocking: token blocks, purging, composite blocks, Table-2 stats."""
from __future__ import annotations

from dataclasses import replace

import pytest
from pyspark.sql import functions as F

from tests.kbutil import kb
from repro.baselines.bsl import candidate_pairs_unpruned
from repro.core import evaluate
from repro.core.blocking import purge_blocks, token_block_index
from repro.core.graph import composite_blocks
from repro.core.tokens import literal_tokens
from repro.oracle import assert_equivalent
from repro.tables.table2 import block_stats


@pytest.fixture(scope="module")
def blockkbs(spark):
    k1 = kb(
        spark,
        [
            (1, "a:d", "shared rare", None),
            (2, "a:d", "shared common", None),
            (3, "a:d", "common other", None),
        ],
    )
    k2 = kb(
        spark,
        [
            (11, "b:d", "rare thing", None),
            (12, "b:d", "common thing", None),
            (13, "b:d", "common stuff", None),
        ],
    )
    return k1, k2


class TestTokenBlockIndex:
    def test_only_shared_tokens(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        toks = {r.token for r in idx.collect()}
        assert toks == {"rare", "common"}  # 'shared'/'thing' are one-sided

    def test_comparisons_product(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = {
            r.token: r
            for r in token_block_index(
                literal_tokens(k1), literal_tokens(k2)
            ).collect()
        }
        assert idx["rare"].comparisons == 1 * 1
        assert idx["common"].comparisons == 2 * 2

    def test_oracle_equivalence(self, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        got = token_block_index(t1, t2).select("token", "ef1", "ef2", "comparisons")
        assert_equivalent(
            got,
            """
            WITH e1 AS (SELECT token, count(*) AS ef1 FROM t1 GROUP BY token),
                 e2 AS (SELECT token, count(*) AS ef2 FROM t2 GROUP BY token)
            SELECT token, ef1, ef2, ef1 * ef2 AS comparisons
            FROM e1 JOIN e2 USING (token)
            """,
            t1=t1,
            t2=t2,
        )


class TestPurgeBlocks:
    def test_explicit_threshold(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        kept, thr = purge_blocks(idx, max_comparisons=1)
        assert thr == 1
        assert {r.token for r in kept.collect()} == {"rare"}

    def test_auto_threshold_is_weight_derived(self, spark, blockkbs):
        k1, k2 = blockkbs
        idx = token_block_index(literal_tokens(k1), literal_tokens(k2))
        kept, thr = purge_blocks(idx, min_weight=0.1)
        assert thr == 2**10 - 1
        assert kept.count() == idx.count()  # nothing here is that big

    def test_purges_stopword_head_on_profile(self, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        idx = token_block_index(t1, t2)
        kept, thr = purge_blocks(idx)
        assert kept.count() < idx.count()  # the Zipf head must go
        assert (
            kept.agg(F.max("comparisons")).collect()[0][0] <= thr
        )

    def test_purged_tokens_are_frequent(self, micro_pair):
        t1 = literal_tokens(micro_pair.triples1)
        t2 = literal_tokens(micro_pair.triples2)
        idx = token_block_index(t1, t2)
        kept, thr = purge_blocks(idx)
        dropped = idx.join(kept.select("token"), "token", "left_anti")
        assert dropped.agg(F.min("comparisons")).collect()[0][0] > thr


class TestTokenPairs:
    """The token-block side of ``Blocks.pairs()``."""

    def test_pairs_from_kept_blocks_only(self, spark, blockkbs):
        k1, k2 = blockkbs
        blocks = composite_blocks(k1, k2, 2)  # no name is shared
        idx = token_block_index(blocks.tokens1, blocks.tokens2)
        kept, _ = purge_blocks(idx, max_comparisons=1)
        pairs = {(r.eid1, r.eid2) for r in replace(blocks, kept=kept).pairs().collect()}
        assert pairs == {(1, 11)}

    def test_pairs_distinct(self, spark):
        k1 = kb(spark, [(1, "a:d", "x y", None)])
        k2 = kb(spark, [(9, "b:d", "x y", None)])
        # two shared tokens and a shared name, one pair
        assert composite_blocks(k1, k2, 2).pairs().count() == 1


class TestBlockStats:
    @pytest.fixture(scope="class")
    def stats(self, micro_pair):
        return block_stats(micro_pair.triples1, micro_pair.triples2, micro_pair.gt)

    def test_recall_above_99(self, stats):
        assert stats.recall >= 99.0

    def test_precision_low_but_positive(self, stats):
        assert 0.0 < stats.precision < 50.0

    def test_cartesian(self, stats, micro_pair):
        n1 = micro_pair.triples1.select("eid").distinct().count()
        n2 = micro_pair.triples2.select("eid").distinct().count()
        assert stats.cartesian == n1 * n2

    def test_comparisons_below_cartesian(self, stats):
        assert stats.token_comparisons + stats.name_comparisons < stats.cartesian

    def test_f1_consistent(self, stats):
        p, r = stats.precision, stats.recall
        assert stats.f1 == pytest.approx(2 * p * r / (p + r))

    def test_counts_positive(self, stats):
        assert stats.n_name_blocks > 0
        assert stats.n_token_blocks > 0

    def test_candidates_are_bsl_pairs(self, stats, micro_pair):
        pairs = candidate_pairs_unpruned(micro_pair.triples1, micro_pair.triples2)
        prf = evaluate(pairs, micro_pair.gt)
        # equal recall: the same correct pairs; equal precision: as many candidates
        assert (stats.recall, stats.precision) == (prf.recall, prf.precision)
