"""Table 1 harness: dataset statistics per profile."""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..kbgen.stats import dataset_stats
from .pairs import profile_pairs


def table1_rows(
    spark: SparkSession, profiles: list[str] | None = None, seed: int = 7, sf: float | None = None
) -> list[dict]:
    """One row per dataset, ours only — the paper's numbers are in
    ``paper_numbers.TABLE1`` and joined in EXPERIMENTS.md."""
    rows = []
    for name, pair in profile_pairs(spark, profiles, seed, sf):
        s = dataset_stats(pair)
        rows.append(
            {
                "dataset": name,
                "e1_entities": s["kb1"]["entities"],
                "e2_entities": s["kb2"]["entities"],
                "e1_triples": s["kb1"]["triples"],
                "e2_triples": s["kb2"]["triples"],
                "e1_avg_tokens": s["kb1"]["avg_tokens"],
                "e2_avg_tokens": s["kb2"]["avg_tokens"],
                "attributes": f"{s['kb1']['attributes']}/{s['kb2']['attributes']}",
                "relations": f"{s['kb1']['relations']}/{s['kb2']['relations']}",
                "types": f"{s['kb1']['types']}/{s['kb2']['types']}",
                "vocabularies": f"{s['kb1']['vocabularies']}/{s['kb2']['vocabularies']}",
                "matches": s["matches"],
            }
        )
    return rows
