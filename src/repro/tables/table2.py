"""Table 2 harness: block statistics per profile."""
from __future__ import annotations

from dataclasses import asdict, dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core import DEFAULT_CONFIG, evaluate
from ..core.graph import composite_blocks
from ..core.names import name_block_index
from .pairs import profile_pairs


@dataclass
class BlockStats:
    """The Table-2 row for one dataset."""

    n_name_blocks: int
    n_token_blocks: int
    name_comparisons: int
    token_comparisons: int
    cartesian: int
    precision: float
    recall: float
    f1: float


def block_stats(triples1: DataFrame, triples2: DataFrame, gt: DataFrame) -> BlockStats:
    """Compute Table 2: block counts, cardinalities, and blocking P/R/F1.

    Blocking "predicts" every pair sharing a purged token block or a name
    block (``Blocks.pairs()``); precision/recall are measured against the
    ground truth over those candidate pairs, as in the paper.
    """
    n1 = triples1.select("eid").distinct().count()
    n2 = triples2.select("eid").distinct().count()
    blocks = composite_blocks(triples1, triples2, DEFAULT_CONFIG.k, n1, n2)
    nindex = name_block_index(blocks.names1, blocks.names2)
    token_comps = blocks.kept.agg(F.sum("comparisons")).collect()[0][0] or 0
    name_comps = (
        nindex.agg(F.sum(F.col("cnt1") * F.col("cnt2"))).collect()[0][0] or 0
    )
    prf = evaluate(blocks.pairs(), gt)
    return BlockStats(
        n_name_blocks=nindex.count(),
        n_token_blocks=blocks.kept.count(),
        name_comparisons=int(name_comps),
        token_comparisons=int(token_comps),
        cartesian=n1 * n2,
        precision=prf.precision,
        recall=prf.recall,
        f1=prf.f1,
    )


def table2_rows(
    spark: SparkSession,
    profiles: list[str] | None = None,
    seed: int = 7,
    sf: float | None = None,
) -> list[dict]:
    return [
        {"dataset": name, **asdict(block_stats(pair.triples1, pair.triples2, pair.gt))}
        for name, pair in profile_pairs(spark, profiles, seed, sf)
    ]
