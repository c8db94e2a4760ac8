"""Table 4 harness: matching-rule ablation per profile.

Rows, as in the paper: R1 alone, R2 alone, R3 alone, the full workflow
without R4 ("¬R4"), and the full workflow without R3 ("No Neighbors").
All variants share one blocking graph per dataset (Algorithm 1 runs
once), mirroring how the paper isolates Algorithm 2's rules.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..core import DEFAULT_CONFIG, run_minoaner
from ..core.graph import build_graph
from .pairs import profile_pairs

VARIANTS = {
    "R1": dict(use_r1=True, use_r2=False, use_r3=False, use_r4=False),
    "R2": dict(use_r1=False, use_r2=True, use_r3=False, use_r4=False),
    "R3": dict(use_r1=False, use_r2=False, use_r3=True, use_r4=False),
    "no_R4": dict(use_r1=True, use_r2=True, use_r3=True, use_r4=False),
    "no_neighbors": dict(use_r1=True, use_r2=True, use_r3=False, use_r4=True),
    "full": dict(use_r1=True, use_r2=True, use_r3=True, use_r4=True),
}


def table4_rows(
    spark: SparkSession,
    profiles: list[str] | None = None,
    seed: int = 7,
    sf: float | None = None,
) -> list[dict]:
    rows = []
    for name, pair in profile_pairs(spark, profiles, seed, sf):
        t1, t2 = pair.triples1, pair.triples2
        graph = build_graph(t1, t2, DEFAULT_CONFIG)
        for variant, toggles in VARIANTS.items():
            res = run_minoaner(
                t1, t2, pair.gt, DEFAULT_CONFIG, graph=graph, **toggles
            )
            rows.append({"dataset": name, "variant": variant, **res.prf.row()})
    return rows
