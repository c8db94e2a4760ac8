"""The profile loop every table harness shares."""
from __future__ import annotations

from collections.abc import Iterator

from pyspark.sql import SparkSession

from ..kbgen import PROFILES, KBPair, generate_kb_pair, scaled


def profile_pairs(
    spark: SparkSession, profiles: list[str] | None, seed: int, sf: float | None
) -> Iterator[tuple[str, KBPair]]:
    """``(profile name, KB pair)`` per profile, all four by default.

    Each profile is scaled by ``sf`` when given; both KBs' triples are
    cached, since every harness reads them more than once.
    """
    for name in profiles or list(PROFILES):
        prof = PROFILES[name] if sf is None else scaled(PROFILES[name], sf)
        pair = generate_kb_pair(spark, prof, seed=seed)
        pair.triples1.cache()
        pair.triples2.cache()
        yield name, pair
