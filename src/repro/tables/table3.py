"""Table 3 harness: MinoanER vs baselines per profile.

LINDA and RiMOM rows are quoted from the paper (they are not runnable:
no public implementation / instructions, as the paper itself notes);
``table3_rows`` measures MinoanER, BSL, SiGMa-lite and PARIS-lite.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..baselines import paris, run_bsl, run_paris, run_sigma, sigma
from ..core import DEFAULT_CONFIG, run_minoaner
from .pairs import profile_pairs

# Labels are built from the values the runs actually use.
MINOANER_CONFIG = (
    f"(k,K,N,theta)=({DEFAULT_CONFIG.k},{DEFAULT_CONFIG.K},"
    f"{DEFAULT_CONFIG.N},{DEFAULT_CONFIG.theta})"
)
SIGMA_CONFIG = f"seeds=names,lambda={sigma.NEIGHBOR_WEIGHT},t={sigma.THRESHOLD}"
PARIS_CONFIG = f"iters={paris.ITERATIONS},t={paris.ACCEPT_THRESHOLD}"


def _row(dataset: str, method: str, score, config: str) -> dict:
    """One Table 3 row; ``score`` is anything with precision, recall and f1."""
    return {
        "dataset": dataset,
        "method": method,
        "precision": round(score.precision, 2),
        "recall": round(score.recall, 2),
        "f1": round(score.f1, 2),
        "config": config,
    }


def table3_rows(
    spark: SparkSession,
    profiles: list[str] | None = None,
    seed: int = 7,
    sf: float | None = None,
) -> list[dict]:
    rows = []
    for name, pair in profile_pairs(spark, profiles, seed, sf):
        t1, t2 = pair.triples1, pair.triples2
        res = run_minoaner(t1, t2, pair.gt, DEFAULT_CONFIG)
        rows.append(_row(name, "MinoanER", res.prf, MINOANER_CONFIG))
        bsl = run_bsl(t1, t2, pair.gt_pdf)
        bsl_config = f"n={bsl.n},{bsl.weighting},{bsl.measure},t={bsl.threshold}"
        rows.append(_row(name, "BSL", bsl, bsl_config))
        sg = run_sigma(t1, t2, pair.pdf1, pair.pdf2, pair.gt_pdf)
        rows.append(_row(name, "SiGMa-lite", sg, SIGMA_CONFIG))
        pr = run_paris(pair.pdf1, pair.pdf2, pair.gt_pdf)
        rows.append(_row(name, "PARIS-lite", pr, PARIS_CONFIG))
    return rows
