"""End-to-end pipeline tests: effectiveness, determinism, lineage,
degenerate KBs, sensitivity.

The sensitivity tests mirror the paper's Fig. 5 analysis at micro scale:
varying one knob of (k, K, N, theta) around the default must keep the
pipeline functional and reasonably effective (the paper's robustness
claim), though micro-scale F1 values are noisier than bench-scale ones.
"""
from __future__ import annotations

import pytest

from repro.core import DEFAULT_CONFIG, MinoanerConfig, run_minoaner
from repro.core.matching import match_graph
from tests.kbutil import gt_df, kb

# A plan that starts from checkpointed frames prints in under a hundred
# characters; MICRO's matches planned from the triples up print ~10 M.
MAX_PLAN_CHARS = 10_000
GRAPH_FRAMES = ["alpha", "beta_out1", "beta_out2", "gamma_out1", "gamma_out2"]


class TestEndToEnd:
    def test_micro_effectiveness(self, micro_result):
        assert micro_result.prf.recall >= 95.0
        assert micro_result.prf.f1 >= 85.0

    def test_restaurant_small_effectiveness(self, restaurant_small_result):
        # ~27 ground-truth pairs at this scale: each miss costs ~4 F1,
        # so the bound is loose; bench-scale shape is asserted in
        # benchmarks/bench_table3.py.
        assert restaurant_small_result.prf.recall >= 90.0
        assert restaurant_small_result.prf.f1 >= 82.0

    def test_matches_are_cross_kb_pairs(self, micro_result, micro_pair):
        e1 = {r.eid for r in micro_pair.triples1.select("eid").distinct().collect()}
        e2 = {r.eid for r in micro_pair.triples2.select("eid").distinct().collect()}
        for r in micro_result.matches.collect():
            assert r.eid1 in e1
            assert r.eid2 in e2

    def test_deterministic(self, micro_pair, micro_graph):
        a = match_graph(micro_graph, theta=DEFAULT_CONFIG.theta)
        b = match_graph(micro_graph, theta=DEFAULT_CONFIG.theta)
        sa = {(r.eid1, r.eid2, r.rule) for r in a.collect()}
        sb = {(r.eid1, r.eid2, r.rule) for r in b.collect()}
        assert sa == sb

    def test_r4_never_increases_matches(self, micro_graph):
        with_r4 = match_graph(micro_graph, use_r4=True).count()
        without = match_graph(micro_graph, use_r4=False).count()
        assert with_r4 <= without

    def test_partition_invariance(self, spark, micro_pair, micro_result):
        """The match set does not depend on the shuffle partition count."""
        sets = {8: {(r.eid1, r.eid2, r.rule) for r in micro_result.matches.collect()}}
        try:
            for n in (4, 64):
                spark.conf.set("spark.sql.shuffle.partitions", str(n))
                res = run_minoaner(
                    micro_pair.triples1, micro_pair.triples2, micro_pair.gt, DEFAULT_CONFIG
                )
                sets[n] = {(r.eid1, r.eid2, r.rule) for r in res.matches.collect()}
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", "8")
        assert sets[8]
        assert sets[4] == sets[8] == sets[64]


def _plan_chars(df) -> int:
    return len(df._jdf.queryExecution().optimizedPlan().toString())


class TestLineage:
    """Graph frames and matches plan from a scan, not from the triples up."""

    def test_matches_plan_is_shallow(self, micro_result):
        assert _plan_chars(micro_result.matches) < MAX_PLAN_CHARS

    @pytest.mark.parametrize("frame", GRAPH_FRAMES)
    def test_graph_frame_plan_is_shallow(self, micro_graph, frame):
        assert _plan_chars(getattr(micro_graph, frame)) < MAX_PLAN_CHARS


# (eid, attr, val, obj) rows of the two KBs, ground truth, expected matches
_LITS1 = [(1, "a:name", "golden fork", None), (2, "a:name", "blue moon", None)]
_LITS2 = [(11, "b:title", "golden fork", None), (12, "b:title", "blue moon", None)]
_RELS1 = [(1, "a:near", None, 2), (2, "a:near", None, 1)]
_RELS2 = [(11, "b:near", None, 12), (12, "b:near", None, 11)]
DEGENERATE_KBS = {
    "kb1_empty": ([], _LITS2 + _RELS2, [(1, 11)], set()),
    "both_empty": ([], [], [], set()),
    "no_shared_tokens": (
        [(1, "a:name", "red lion", None), (2, "a:name", "old mill", None)] + _RELS1,
        _LITS2 + _RELS2,
        [(1, 11)],
        set(),
    ),
    "only_relations": (_RELS1, _RELS2, [(1, 11), (2, 12)], set()),
    "no_relations": (
        _LITS1,
        _LITS2,
        [(1, 11), (2, 12)],
        {(1, 11, "R1"), (2, 12, "R1")},
    ),
}


@pytest.mark.parametrize("case", list(DEGENERATE_KBS))
def test_degenerate_kbs(spark, case):
    """Degenerate KB pairs give typed results, and empty ones score 0."""
    rows1, rows2, gt, expected = DEGENERATE_KBS[case]
    res = run_minoaner(kb(spark, rows1), kb(spark, rows2), gt_df(spark, gt))
    assert res.matches.dtypes == [("eid1", "bigint"), ("eid2", "bigint"), ("rule", "string")]
    assert {(r.eid1, r.eid2, r.rule) for r in res.matches.collect()} == expected
    if expected:
        assert res.prf.n_correct == len(expected)
    else:
        assert (res.prf.precision, res.prf.recall, res.prf.f1) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("theta", [0.4, 0.5, 0.7])
def test_sensitivity_theta(micro_pair, micro_graph, theta):
    res = run_minoaner(
        micro_pair.triples1,
        micro_pair.triples2,
        micro_pair.gt,
        MinoanerConfig(theta=theta),
        graph=micro_graph,
    )
    assert res.prf.f1 >= 75.0


@pytest.mark.parametrize("K", [5, 25])
def test_sensitivity_K(micro_pair, K):
    cfg = MinoanerConfig(K=K)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 75.0


@pytest.mark.parametrize("N", [1, 5])
def test_sensitivity_N(micro_pair, N):
    cfg = MinoanerConfig(N=N)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 75.0


@pytest.mark.parametrize("k", [1, 3])
def test_sensitivity_k(micro_pair, k):
    cfg = MinoanerConfig(k=k)
    res = run_minoaner(micro_pair.triples1, micro_pair.triples2, micro_pair.gt, cfg)
    assert res.prf.f1 >= 70.0
