"""Token blocking and Block Purging (Section 3.1, 3.3).

Token blocking creates one block per token shared by the two KBs; the
block's comparison cardinality is ``EF1(t) * EF2(t)``. Block Purging
removes the stop-word-like blocks whose tokens carry near-zero valueSim
weight anyway (paper Section 3.3, deferring to [26]). ``purge_blocks``
derives its cut-off from Def. 2.1's weighting (DESIGN.md section 5): a
block of cardinality ``c`` carries token weight ``1/log2(c+1)``, so
blocks with ``EF1*EF2 > 2**(1/min_weight) - 1`` are dropped — 1023
comparisons at the default ``min_weight = 0.1``, whatever the KB sizes.

``graph.composite_blocks`` combines these token blocks with the name
blocks of ``core/names.py``; Table 2's statistics are taken over that
composite in ``tables/table2.py``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .tokens import entity_frequency, pair_token_weights


def token_block_index(tokens1: DataFrame, tokens2: DataFrame) -> DataFrame:
    """``(token, ef1, ef2, weight, comparisons)`` — one row per token block.

    Only tokens present in both KBs form blocks with cross-KB
    comparisons (clean-clean ER compares across KBs only).
    """
    idx = pair_token_weights(entity_frequency(tokens1), entity_frequency(tokens2))
    return idx.withColumn("comparisons", F.col("ef1") * F.col("ef2"))


def purge_blocks(
    block_index: DataFrame,
    max_comparisons: int | None = None,
    min_weight: float = 0.1,
) -> tuple[DataFrame, int]:
    """Drop excessively large token blocks; return (kept blocks, threshold).

    If ``max_comparisons`` is not given, it is derived from Def. 2.1's
    weighting: a block of cardinality ``EF1*EF2 = c`` carries token
    weight ``1/log2(c+1)``, so dropping blocks with weight below
    ``min_weight`` means ``c > 2**(1/min_weight) - 1`` (1023 for the
    default 0.1). These are exactly the stop-word blocks whose tokens
    contribute ~nothing to valueSim, so recall is preserved — the stated
    goal of Block Purging [26] in the paper.
    """
    if max_comparisons is None:
        max_comparisons = int(2 ** (1.0 / min_weight)) - 1
    return (
        block_index.filter(F.col("comparisons") <= max_comparisons),
        max_comparisons,
    )
