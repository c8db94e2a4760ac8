"""End-to-end MinoanER pipeline: blocking graph + matching + scoring.

``run_minoaner`` is the one-call entry used by the benchmarks and the
Table 3/4 harnesses. All heavy lifting is DataFrame work; only final
P/R/F1 counts are collected to the driver.

The final matches are checkpointed (``graph.checkpoint``) before they are
scored, like the graph frames and the rule outputs upstream: scoring and
any later query on ``matches`` then plan from a scan of a few hundred
rows instead of the whole Algorithm 1 + 2 lineage.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from .config import DEFAULT_CONFIG, MinoanerConfig
from .evaluation import PRF, evaluate
from .graph import BlockingGraph, build_graph, checkpoint
from .matching import match_graph


@dataclass
class MinoanerResult:
    """Everything a table harness needs from one pipeline run."""

    graph: BlockingGraph
    matches: DataFrame  # (eid1, eid2, rule)
    prf: PRF


def run_minoaner(
    triples1: DataFrame,
    triples2: DataFrame,
    gt: DataFrame,
    cfg: MinoanerConfig = DEFAULT_CONFIG,
    use_r1: bool = True,
    use_r2: bool = True,
    use_r3: bool = True,
    use_r4: bool = True,
    graph: BlockingGraph | None = None,
) -> MinoanerResult:
    """Build (or reuse) the blocking graph, match, and score against gt.

    Passing a prebuilt ``graph`` lets the Table 4 ablation evaluate all
    rule subsets without recomputing Algorithm 1.
    """
    if graph is None:
        graph = build_graph(triples1, triples2, cfg)
    matches = checkpoint(
        match_graph(
            graph,
            theta=cfg.theta,
            use_r1=use_r1,
            use_r2=use_r2,
            use_r3=use_r3,
            use_r4=use_r4,
        )
    )
    return MinoanerResult(graph=graph, matches=matches, prf=evaluate(matches, gt))
