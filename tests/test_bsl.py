"""Tests for the BSL baseline: n-grams, weights, similarity measures, grid."""
from __future__ import annotations

import math

import numpy as np
import pytest
from pyspark.sql import functions as F

from tests.kbutil import kb
from repro.baselines.bsl import (
    candidate_pairs_unpruned,
    entity_grams,
    pair_similarities,
    run_bsl,
    weighted_grams,
)


@pytest.fixture(scope="module")
def gramkb(spark):
    return kb(spark, [(1, "a:d", "alpha beta gamma", None), (1, "a:d", "beta", None)])


class TestEntityGrams:
    def test_unigrams_with_tf(self, spark, gramkb):
        g = {(r.gram, r.tf) for r in entity_grams(gramkb, 1).collect()}
        assert g == {("alpha", 1), ("beta", 2), ("gamma", 1)}

    def test_bigrams_within_value(self, spark, gramkb):
        g = {r.gram for r in entity_grams(gramkb, 2).collect()}
        assert g == {"alpha_beta", "beta_gamma"}  # no grams span values

    def test_trigrams(self, spark, gramkb):
        g = {r.gram for r in entity_grams(gramkb, 3).collect()}
        assert g == {"alpha_beta_gamma"}

    def test_short_values_skipped(self, spark):
        k = kb(spark, [(1, "a:d", "solo", None)])
        assert entity_grams(k, 2).count() == 0


class TestWeights:
    def test_tf_weighting(self, spark, gramkb):
        g = entity_grams(gramkb, 1)
        w1, _ = weighted_grams(g, g, "tf")
        ws = {r.gram: r.w for r in w1.collect()}
        assert ws["beta"] == 2.0

    def test_tfidf_rare_tokens_weigh_more(self, spark):
        k1 = kb(spark, [(1, "a:d", "rare common", None), (2, "a:d", "common", None)])
        k2 = kb(spark, [(11, "b:d", "rare common", None), (12, "b:d", "common", None)])
        w1, _ = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1), "tfidf")
        ws = {r.gram: r.w for r in w1.filter(F.col("eid") == 1).collect()}
        assert ws["rare"] > ws["common"]

    def test_tfidf_formula(self, spark):
        k1 = kb(spark, [(1, "a:d", "rare", None), (2, "a:d", "x", None)])
        k2 = kb(spark, [(11, "b:d", "rare", None), (12, "b:d", "y", None)])
        w1, _ = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1), "tfidf")
        got = w1.filter(F.col("gram") == "rare").collect()[0].w
        assert got == pytest.approx(1.0 * math.log(4 / 2))

    def test_tfidf_independent_of_shared_ids(self, spark):
        # KB2 reuses KB1's id 1: still two documents carrying "rare"
        k1 = kb(spark, [(1, "a:d", "rare", None), (2, "a:d", "x", None)])
        k2 = kb(spark, [(1, "b:d", "rare", None), (12, "b:d", "y", None)])
        w1, w2 = weighted_grams(entity_grams(k1, 1), entity_grams(k2, 1), "tfidf")
        for w in (w1, w2):
            got = w.filter(F.col("gram") == "rare").collect()[0].w
            assert got == pytest.approx(math.log(4 / 2))

    def test_unknown_weighting_raises(self, spark, gramkb):
        g = entity_grams(gramkb, 1)
        with pytest.raises(ValueError):
            weighted_grams(g, g, "bogus")


class TestPairSimilarities:
    @pytest.fixture(scope="class")
    def sims(self, spark):
        import pandas as pd

        k1 = kb(spark, [(1, "a:d", "a b c", None)])
        k2 = kb(spark, [(11, "b:d", "b c d e", None)])
        pairs = spark.createDataFrame(pd.DataFrame({"eid1": [1], "eid2": [11]}))
        g1 = entity_grams(k1, 1)
        g2 = entity_grams(k2, 1)
        w1, w2 = weighted_grams(g1, g2, "tf")
        return pair_similarities(pairs, w1, w2).collect()[0]

    def test_jaccard(self, sims):
        # |common|=2, |A|=3, |B|=4 -> 2/5
        assert sims.jaccard == pytest.approx(2 / 5)

    def test_cosine(self, sims):
        # all tf=1: dot=2, norms sqrt(3), sqrt(4)
        assert sims.cosine == pytest.approx(2 / (math.sqrt(3) * 2))

    def test_genjaccard_equals_jaccard_for_unit_weights(self, sims):
        assert sims.genjaccard == pytest.approx(sims.jaccard)

    def test_sigma_measure(self, sims):
        # sum_common (wA+wB) = 4, sumA + sumB = 7
        assert sims.sigma == pytest.approx(4 / 7)

    def test_all_measures_in_unit_interval(self, micro_pair):
        pairs = candidate_pairs_unpruned(micro_pair.triples1, micro_pair.triples2)
        g1 = entity_grams(micro_pair.triples1, 1)
        g2 = entity_grams(micro_pair.triples2, 1)
        w1, w2 = weighted_grams(g1, g2, "tfidf")
        pdf = pair_similarities(pairs, w1, w2).toPandas()
        for m in ("cosine", "jaccard", "genjaccard", "sigma"):
            assert (pdf[m] >= -1e-9).all() and (pdf[m] <= 1 + 1e-9).all()


class TestRunBSL:
    def test_finds_good_config_on_micro(self, micro_pair):
        res = run_bsl(
            micro_pair.triples1,
            micro_pair.triples2,
            micro_pair.gt_pdf,
            ns=(1,),
            thresholds=np.arange(0.0, 1.0, 0.1),
        )
        assert res.f1 >= 70.0  # micro is value-rich: tuned BSL must do well
        assert res.measure in ("cosine", "jaccard", "genjaccard", "sigma")

    def test_grid_has_all_configs(self, micro_pair):
        res = run_bsl(
            micro_pair.triples1,
            micro_pair.triples2,
            micro_pair.gt_pdf,
            ns=(1,),
            thresholds=np.arange(0.0, 1.0, 0.25),
        )
        # (tf: 3 measures + tfidf: 4 measures) x 4 thresholds
        assert len(res.grid) == 7 * 4

    def test_best_row_consistent_with_grid(self, micro_pair):
        res = run_bsl(
            micro_pair.triples1,
            micro_pair.triples2,
            micro_pair.gt_pdf,
            ns=(1,),
            thresholds=np.arange(0.0, 1.0, 0.25),
        )
        assert res.f1 == pytest.approx(res.grid.f1.max())
