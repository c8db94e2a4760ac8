"""Dataset statistics for Table 1 of the paper.

Computes, per KB: entity count, triple count, average tokens per entity,
number of (literal) attributes, number of relations, number of types and
number of vocabularies (namespace prefixes), plus the ground-truth match
count — the same rows the paper reports in its Table 1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.tokens import TOKEN_SPLIT, literal_tokens
from .generator import KBPair


def kb_stats(triples: DataFrame) -> dict[str, float]:
    """Table-1 statistics for one KB (single pass per metric)."""
    n_entities = triples.select("eid").distinct().count()
    n_triples = triples.count()
    toks = literal_tokens(triples)
    # tokens are de-duplicated per entity by literal_tokens; the paper's
    # "av. tokens" counts tokens in values, so count token *occurrences*
    # from the raw values instead.
    occurrences = (
        triples.filter(F.col("val").isNotNull())
        .select(
            F.explode(F.split(F.lower(F.col("val")), TOKEN_SPLIT)).alias("token")
        )
        .filter(F.col("token") != "")
        .count()
    )
    literal_attrs = (
        triples.filter(F.col("val").isNotNull()).select("attr").distinct().count()
    )
    relations = (
        triples.filter(F.col("obj").isNotNull()).select("attr").distinct().count()
    )
    types = (
        triples.filter(
            F.col("val").isNotNull() & F.col("attr").endswith(":type")
        )
        .select("val")
        .distinct()
        .count()
    )
    vocabularies = (
        triples.select(
            F.split(F.col("attr"), ":").getItem(0).alias("ns")
        )
        .distinct()
        .count()
    )
    return {
        "entities": n_entities,
        "triples": n_triples,
        "avg_tokens": round(occurrences / max(1, n_entities), 2),
        "attributes": literal_attrs,
        "relations": relations,
        "types": types,
        "vocabularies": vocabularies,
        "distinct_tokens": toks.select("token").distinct().count(),
    }


def dataset_stats(pair: KBPair) -> dict[str, object]:
    """Full Table-1 row set for one generated dataset."""
    s1 = kb_stats(pair.triples1)
    s2 = kb_stats(pair.triples2)
    return {
        "dataset": pair.profile.name,
        "kb1": s1,
        "kb2": s2,
        "matches": pair.gt.count(),
    }
