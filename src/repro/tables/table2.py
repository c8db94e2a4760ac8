"""Table 2 harness: block statistics per profile."""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG
from ..core.blocking import block_stats
from ..core.names import entity_names, top_k_name_attrs
from .pairs import profile_pairs


def table2_rows(
    spark: SparkSession,
    profiles: list[str] | None = None,
    seed: int = 7,
    sf: float | None = None,
) -> list[dict]:
    rows = []
    for name, pair in profile_pairs(spark, profiles, seed, sf):
        t1, t2 = pair.triples1, pair.triples2
        n1 = entity_names(t1, top_k_name_attrs(t1, DEFAULT_CONFIG.k))
        n2 = entity_names(t2, top_k_name_attrs(t2, DEFAULT_CONFIG.k))
        s = block_stats(t1, t2, n1, n2, pair.gt)
        rows.append(
            {
                "dataset": name,
                "n_name_blocks": s.n_name_blocks,
                "n_token_blocks": s.n_token_blocks,
                "name_comparisons": s.name_comparisons,
                "token_comparisons": s.token_comparisons,
                "cartesian": s.cartesian,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
            }
        )
    return rows
