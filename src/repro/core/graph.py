"""Disjunctive blocking graph construction (Section 3.2-3.3, Algorithm 1).

Composite blocking (Section 3.1) is built once, by :func:`composite_blocks`,
for ``build_graph``, Table 2 and the baselines alike.

The graph is never materialized as an adjacency structure; as in the
paper, it is represented by per-evidence DataFrames:

* ``alpha``      — pairs alone in a name block (alpha = 1);
* ``beta_out1``  — per KB1 entity, its K highest-valueSim candidates
  (directed edges KB1 -> KB2), and ``beta_out2`` the reverse direction;
* ``gamma_out1`` / ``gamma_out2`` — the K highest-neighborNSim
  candidates per node, built by pushing every retained beta edge to the
  cross product of the endpoints' top *in*-neighbors (Alg. 1 l.21-27).

Ranks are dense within each node's list (1 = best), with deterministic
ties (weight desc, candidate id asc).

These five frames are where Algorithm 1 hands over to Algorithm 2, so
``build_graph`` materializes each with :func:`checkpoint`, which also
cuts its lineage. The reason is planning cost, not data volume: every
rule and the final scoring would otherwise re-optimize the whole plan
from the triples up (about 10 M characters of optimized plan for the
final matches), and that costs more than the data work at every scale
this repository runs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark import StorageLevel
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .blocking import purge_blocks, token_block_index
from .config import MinoanerConfig
from .names import alpha_edges, entity_names, name_pairs, top_k_name_attrs
from .relations import relation_importance, top_in_neighbors, top_n_neighbors
from .tokens import literal_tokens


def checkpoint(df: DataFrame) -> DataFrame:
    """Compute ``df`` now and return it with its lineage cut.

    Later plans start from a scan of the stored rows instead of
    re-planning everything upstream. The level is the serialized
    ``MEMORY_AND_DISK``: the deserialized default held the top-K frames
    at about 6x the size of a columnar cache.
    """
    return df.localCheckpoint(eager=True, storageLevel=StorageLevel.MEMORY_AND_DISK)


def beta_scores(
    tokens1: DataFrame, tokens2: DataFrame, kept_blocks: DataFrame
) -> DataFrame:
    """``(eid1, eid2, beta)`` — valueSim for every pair sharing a kept token.

    This is the Meta-blocking-style weighting of Alg. 1 lines 10-14: the
    sum over shared tokens of ``1/log2(EF1*EF2+1)``, computed as a
    token-similarity join over the purged token blocks.
    """
    w = kept_blocks.select("token", "weight")
    return (
        tokens1.join(w, "token")
        .withColumnRenamed("eid", "eid1")
        .join(tokens2.withColumnRenamed("eid", "eid2"), "token")
        .groupBy("eid1", "eid2")
        .agg(F.sum("weight").alias("beta"))
    )


@dataclass
class Blocks:
    """Token blocks ``h_T`` left by Block Purging plus name blocks ``h_N``.

    Every frame is lazy and uncached; a caller that reuses the tokens
    caches them itself.
    """

    tokens1: DataFrame      # (eid, token)
    tokens2: DataFrame      # (eid, token)
    kept: DataFrame         # (token, ef1, ef2, weight, comparisons) after purging
    purge_threshold: int
    name_attrs1: list[str]
    name_attrs2: list[str]
    names1: DataFrame       # (eid, name)
    names2: DataFrame       # (eid, name)

    def pairs(self) -> DataFrame:
        """The unpruned graph's edges: distinct pairs sharing a kept token or a name."""
        return (
            beta_scores(self.tokens1, self.tokens2, self.kept)
            .select("eid1", "eid2")
            .union(name_pairs(self.names1, self.names2))
            .distinct()
        )


def composite_blocks(
    triples1: DataFrame,
    triples2: DataFrame,
    k: int,
    n1: int | None = None,
    n2: int | None = None,
) -> Blocks:
    """Composite blocking with ``k`` name attributes per KB.

    ``n1``/``n2`` (|E1|, |E2|) spare :func:`top_k_name_attrs` a recount;
    choosing the name attributes is the only Spark work done here.
    """
    name_attrs1 = top_k_name_attrs(triples1, k, n1)
    name_attrs2 = top_k_name_attrs(triples2, k, n2)
    names1 = entity_names(triples1, name_attrs1)
    names2 = entity_names(triples2, name_attrs2)
    t1, t2 = literal_tokens(triples1), literal_tokens(triples2)
    kept, threshold = purge_blocks(token_block_index(t1, t2))
    return Blocks(t1, t2, kept, threshold, name_attrs1, name_attrs2, names1, names2)


def top_k_directed(
    scores: DataFrame, node_col: str, cand_col: str, weight_col: str, k: int
) -> DataFrame:
    """Keep each node's K best candidates by ``weight_col`` (rank added).

    Rank 1 is the best candidate; ties break on candidate id ascending
    so results are deterministic across runs and partitionings.
    """
    w = Window.partitionBy(node_col).orderBy(
        F.desc(weight_col), F.asc(cand_col)
    )
    return (
        scores.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
    )


def gamma_scores(
    beta_edges: DataFrame, topin1: DataFrame, topin2: DataFrame
) -> DataFrame:
    """``(eid1, eid2, gamma)`` — neighborNSim via in-neighbor propagation.

    For every retained beta edge (e_i, e_j), each pair of their top
    in-neighbors (in_i, in_j) accumulates that beta (Alg. 1 l.21-27);
    after aggregation, ``gamma[in_i, in_j] = neighborNSim(in_i, in_j)``
    restricted to the beta edges that survived pruning, exactly as the
    paper's Spark implementation reuses the computed betas.
    """
    e = beta_edges.select("eid1", "eid2", "beta")
    return (
        e.join(topin1.withColumnRenamed("in_neighbor", "g1"), topin1.eid == e.eid1)
        .drop("eid")
        .join(topin2.withColumnRenamed("in_neighbor", "g2"), topin2.eid == e.eid2)
        .drop("eid")
        .groupBy(F.col("g1").alias("eid1"), F.col("g2").alias("eid2"))
        .agg(F.sum("beta").alias("gamma"))
    )


@dataclass
class BlockingGraph:
    """The pruned, directed disjunctive blocking graph plus provenance."""

    alpha: DataFrame        # (eid1, eid2)
    beta_out1: DataFrame    # (eid1, eid2, beta, rank) — K best per eid1
    beta_out2: DataFrame    # (eid1, eid2, beta, rank) — K best per eid2
    gamma_out1: DataFrame   # (eid1, eid2, gamma, rank)
    gamma_out2: DataFrame   # (eid1, eid2, gamma, rank)
    n1: int                 # |E1|
    n2: int                 # |E2|
    name_attrs1: list[str]
    name_attrs2: list[str]
    purge_threshold: int

    def directed_from1(self) -> DataFrame:
        """Pairs with an edge *from* the KB1 node (alpha | beta | gamma)."""
        return (
            self.alpha.select("eid1", "eid2")
            .union(self.beta_out1.select("eid1", "eid2"))
            .union(self.gamma_out1.select("eid1", "eid2"))
            .distinct()
        )

    def directed_from2(self) -> DataFrame:
        """Pairs with an edge *from* the KB2 node."""
        return (
            self.alpha.select("eid1", "eid2")
            .union(self.beta_out2.select("eid1", "eid2"))
            .union(self.gamma_out2.select("eid1", "eid2"))
            .distinct()
        )


def build_graph(
    triples1: DataFrame,
    triples2: DataFrame,
    cfg: MinoanerConfig,
) -> BlockingGraph:
    """Run Algorithm 1 end to end as DataFrame jobs.

    Name blocking, token blocking and top-neighbor extraction are
    independent jobs (the parallel branches of the paper's Fig. 4);
    gamma is derived from the pruned beta edges and the in-neighbor
    index, then pruned per node. The five graph frames are checkpointed;
    the intermediate caches they were computed from are released before
    returning (the caller's triples are left as they are).
    """
    n1 = triples1.select("eid").distinct().count()
    n2 = triples2.select("eid").distinct().count()

    blocks = composite_blocks(triples1, triples2, cfg.k, n1, n2)

    # --- name evidence ----------------------------------------------------
    alpha = checkpoint(alpha_edges(blocks.names1, blocks.names2))

    # --- value evidence ---------------------------------------------------
    t1, t2 = blocks.tokens1.cache(), blocks.tokens2.cache()
    beta = beta_scores(t1, t2, blocks.kept).cache()
    beta_out1 = checkpoint(top_k_directed(beta, "eid1", "eid2", "beta", cfg.K))
    beta_out2 = checkpoint(top_k_directed(beta, "eid2", "eid1", "beta", cfg.K))
    for dead in (beta, t1, t2):
        dead.unpersist()

    # --- neighbor evidence ------------------------------------------------
    imp1 = relation_importance(triples1, n1)
    imp2 = relation_importance(triples2, n2)
    topin1 = top_in_neighbors(top_n_neighbors(triples1, cfg.N, imp1))
    topin2 = top_in_neighbors(top_n_neighbors(triples2, cfg.N, imp2))
    retained_beta = (
        beta_out1.select("eid1", "eid2", "beta")
        .union(beta_out2.select("eid1", "eid2", "beta"))
        .distinct()
    )
    gamma = gamma_scores(retained_beta, topin1, topin2)
    gamma_out1 = checkpoint(top_k_directed(gamma, "eid1", "eid2", "gamma", cfg.K))
    gamma_out2 = checkpoint(top_k_directed(gamma, "eid2", "eid1", "gamma", cfg.K))

    return BlockingGraph(
        alpha=alpha,
        beta_out1=beta_out1,
        beta_out2=beta_out2,
        gamma_out1=gamma_out1,
        gamma_out2=gamma_out2,
        n1=n1,
        n2=n2,
        name_attrs1=blocks.name_attrs1,
        name_attrs2=blocks.name_attrs2,
        purge_threshold=blocks.purge_threshold,
    )
