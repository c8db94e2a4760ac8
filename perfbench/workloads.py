"""The benchmark's workloads: inputs, one pass, output checks, layer metrics.

A workload generates a KB pair from the seed (the program receives only
the generated triples and ground truth), runs one pass of the program on
it, and checks the pass's outputs on the driver. For the traced pass it
names the layer functions to trace and turns the spans into per-layer
metrics. Profiles are scaled so that a run, which pays a cold Spark
session every time, stays within the benchmark's time budget.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro.baselines.bsl as bsl_mod
import repro.baselines.umc as umc_mod
import repro.core.graph as graph_mod
import repro.core.matching as matching_mod
import repro.core.pipeline as pipeline_mod
from repro.baselines import run_bsl, run_paris, run_sigma
from repro.core import DEFAULT_CONFIG, run_minoaner
from repro.kbgen import PROFILES, Profile, generate_pandas, scaled, to_spark
from repro.kbgen.generator import GT_SCHEMA
from tracer import Probe, Tracer

Pairs = set[tuple[int, int]]


@dataclass
class KB:
    """One generated input: cached Spark frames plus the pandas copies."""

    triples1: DataFrame
    triples2: DataFrame
    gt: DataFrame
    pdf1: pd.DataFrame
    pdf2: pd.DataFrame
    gt_pdf: pd.DataFrame
    generate_s: float  # pandas generation alone

    def materialize(self) -> None:
        for df in (self.triples1, self.triples2, self.gt):
            df.cache().count()

    @property
    def n_triples(self) -> int:
        return len(self.pdf1) + len(self.pdf2)

    def counts(self) -> dict[str, int]:
        return {
            "entities1": int(self.pdf1.eid.nunique()),
            "entities2": int(self.pdf2.eid.nunique()),
            "triples1": len(self.pdf1),
            "triples2": len(self.pdf2),
            "gt_pairs": len(self.gt_pdf),
        }


def make_kb(spark: SparkSession, profile: Profile, seed: int) -> KB:
    """Generate the KB pair for ``seed`` and cache it in Spark."""
    t0 = time.perf_counter()
    pdf1, pdf2, gt_pdf = generate_pandas(profile, seed)
    generate_s = time.perf_counter() - t0
    kb = KB(
        to_spark(spark, pdf1),
        to_spark(spark, pdf2),
        spark.createDataFrame(gt_pdf, schema=GT_SCHEMA),
        pdf1,
        pdf2,
        gt_pdf,
        generate_s,
    )
    kb.materialize()
    return kb


@dataclass
class Outcome:
    """A pass's checked output.

    ``output`` is the canonical, JSON-serialisable output compared across
    passes; ``problems`` lists every failed check.
    """

    precision: float
    recall: float
    f1: float
    output: Any
    problems: list[str]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.output, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Profile
    run: Callable[[KB], Any]  # the timed call into the program
    traced: Callable[[KB, Tracer], Any]  # the same call, with spans
    check: Callable[[KB, Any, bool], Outcome]  # bool: also take costly detail
    probes: Callable[[Tracer], list[Probe]]
    layers: Callable[[Tracer, KB, Any, Outcome], dict[str, float]]


# --- driver-side checks -------------------------------------------------------
def _pairs(df: DataFrame) -> Pairs:
    # collect the frame itself: a projection of it would be planned anew,
    # which costs seconds on the matching layers' deep plans
    return {(int(r["eid1"]), int(r["eid2"])) for r in df.collect()}


def _pdf_pairs(pdf: pd.DataFrame) -> Pairs:
    return set(zip(pdf.eid1.astype(int).tolist(), pdf.eid2.astype(int).tolist()))


def _recount(pairs: Pairs, gt: Pairs) -> tuple[float, float, float]:
    """Precision, recall and F1 in percent, recounted on the driver."""
    ok = len(pairs & gt)
    p = 100.0 * ok / len(pairs) if pairs else 0.0
    r = 100.0 * ok / len(gt) if gt else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _same(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    return all(abs(x - y) <= 1e-9 * max(1.0, abs(x)) for x, y in zip(a, b))


def _distinct_pairs(frames: list[DataFrame]) -> int:
    """Distinct (eid1, eid2) pairs across frames, counted in Spark."""
    if not frames:
        return 0
    pairs = frames[0].select("eid1", "eid2")
    for df in frames[1:]:
        pairs = pairs.union(df.select("eid1", "eid2"))
    return pairs.distinct().count()


def _one_to_one(pairs: Pairs) -> bool:
    return len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})


# --- minoaner_yago: run_minoaner end to end ------------------------------------
def _minoaner_run(kb: KB):
    return run_minoaner(kb.triples1, kb.triples2, kb.gt, DEFAULT_CONFIG)


def _minoaner_traced(kb: KB, tr: Tracer):
    return _minoaner_run(kb)  # the probes open the spans


def _minoaner_check(kb: KB, res, detail: bool) -> Outcome:
    pairs, gt = _pairs(res.matches), _pdf_pairs(kb.gt_pdf)
    problems = []
    prf = res.prf
    if (prf.n_matches, prf.n_gt) != (len(pairs), len(gt)) or not _same(
        (prf.precision, prf.recall, prf.f1), _recount(pairs, gt)
    ):
        problems.append("evaluate's P/R/F1 differs from a driver-side recount")
    found = res.matches.sparkSession.createDataFrame(sorted(pairs), "eid1 long, eid2 long")
    both = found.join(res.graph.directed_from1(), ["eid1", "eid2"], "left_semi").join(
        res.graph.directed_from2(), ["eid1", "eid2"], "left_semi"
    )
    if both.count() != len(pairs):
        problems.append("a match lacks a graph edge in one of the two directions (R4)")
    extra: dict[str, Any] = {"matches": len(pairs), "correct": prf.n_correct}
    if detail:
        plan = res.matches._jdf.queryExecution().optimizedPlan().toString()
        extra["plan_chars"] = len(plan)
    return Outcome(prf.precision, prf.recall, prf.f1, sorted(pairs), problems, extra)


def _topk_layer(*args, **kwargs) -> str:
    weight_col = kwargs.get("weight_col", args[3] if len(args) > 3 else "")
    return f"{weight_col}_topk"


def _minoaner_probes(tr: Tracer) -> list[Probe]:
    g = graph_mod
    return [
        Probe(pipeline_mod, "build_graph", "graph", force=False),
        Probe(pipeline_mod, "match_graph", "matching", force=False),
        Probe(pipeline_mod, "evaluate", "evaluate", force=False),
        Probe(g, "top_k_name_attrs", "names"),
        Probe(g, "entity_names", "names"),
        Probe(g, "alpha_edges", "names"),
        Probe(g, "literal_tokens", "tokens"),
        Probe(g, "token_block_index", "blocking"),
        Probe(g, "purge_blocks", "blocking", keep=True),
        Probe(g, "beta_scores", "beta"),
        Probe(g, "top_k_directed", _topk_layer, keep=True),
        Probe(g, "relation_importance", "relations"),
        Probe(g, "top_n_neighbors", "relations"),
        Probe(g, "top_in_neighbors", "relations"),
        Probe(g, "gamma_scores", "gamma"),
        *(Probe(matching_mod, f"rule{i}", f"r{i}", keep=True) for i in range(1, 5)),
    ]


def _minoaner_layers(tr: Tracer, kb: KB, res, ref: Outcome) -> dict[str, float]:
    m: dict[str, float] = {}
    for layer in ("names", "tokens", "blocking", "beta", "relations", "gamma", "evaluate"):
        m[f"{layer}.self_s"] = tr.self_s(layer)
        m[f"{layer}.jobs"] = tr.jobs(layer)
    m["evaluate.stages"] = tr.stages("evaluate")
    m["names.alpha_edges"] = tr.rows("names", "alpha_edges")
    m["tokens.rows"] = tr.rows("tokens")
    blocks = tr.rows("blocking", "purge_blocks")
    m["blocking.blocks"] = blocks
    m["blocking.kept_frac"] = blocks / max(1, tr.rows("blocking", "token_block_index"))
    m["blocking.comparisons"] = sum(
        int(kept.agg(F.sum("comparisons")).first()[0] or 0)
        for kept, _threshold in tr.kept.get("blocking", [])
    )
    for ev in ("beta", "gamma"):
        edges = tr.rows(ev)
        m[f"{ev}.edges"] = edges
        m[f"{ev}_topk.self_s"] = tr.self_s(f"{ev}_topk")
        m[f"{ev}_topk.kept_frac"] = _distinct_pairs(tr.kept.get(f"{ev}_topk", [])) / max(1, edges)
    m["relations.in_neighbors"] = tr.rows("relations", "top_in_neighbors")
    gt = _pdf_pairs(kb.gt_pdf)
    for i in range(1, 5):
        r = f"r{i}"
        pairs = set().union(*(_pairs(df) for df in tr.kept.get(r, [])))
        m[f"{r}.self_s"] = tr.self_s(r)
        m[f"{r}.jobs"] = tr.jobs(r)
        m[f"{r}.stages"] = tr.stages(r)
        m[f"{r}.matches"] = tr.rows(r)
        m[f"{r}.correct_frac"] = len(pairs & gt) / len(pairs) if pairs else 0.0
    m["matching.plan_chars"] = ref.extra["plan_chars"]
    return m


# --- baselines_restaurant: BSL, SiGMa-lite and PARIS-lite ----------------------
BSL_GRID_ROWS = 420  # 3 n-gram sizes x 7 (weighting, measure) pairs x 20 thresholds


def _baselines_run(kb: KB):
    bsl = run_bsl(kb.triples1, kb.triples2, kb.gt_pdf)
    sigma = run_sigma(kb.triples1, kb.triples2, kb.pdf1, kb.pdf2, kb.gt_pdf)
    paris = run_paris(kb.pdf1, kb.pdf2, kb.gt_pdf)
    return bsl, sigma, paris


def _baselines_traced(kb: KB, tr: Tracer):
    with tr.span("bsl"):
        bsl = run_bsl(kb.triples1, kb.triples2, kb.gt_pdf)
    with tr.span("sigma"):
        sigma = run_sigma(kb.triples1, kb.triples2, kb.pdf1, kb.pdf2, kb.gt_pdf)
    with tr.span("paris", spark=False):
        paris = run_paris(kb.pdf1, kb.pdf2, kb.gt_pdf)
    if tr.counters.get("umc.not_one_to_one"):
        raise RuntimeError("a Unique Mapping Clustering output is not 1-1")
    return bsl, sigma, paris


def _baselines_check(kb: KB, handle, detail: bool) -> Outcome:
    bsl, sigma, paris = handle
    gt = _pdf_pairs(kb.gt_pdf)
    problems = []
    grid = bsl.grid
    if len(grid) != BSL_GRID_ROWS:
        problems.append(f"BSL grid has {len(grid)} rows, not {BSL_GRID_ROWS}")
    best = grid.loc[grid.f1.idxmax()]
    if not _same((bsl.precision, bsl.recall, bsl.f1), (best.precision, best.recall, best.f1)):
        problems.append("BSL's reported score is not its grid's best row")
    output: dict[str, Any] = {
        "bsl_grid": [list(map(_plain, row)) for row in grid.itertuples(index=False)]
    }
    for name, res in (("sigma", sigma), ("paris", paris)):
        pairs = _pdf_pairs(res.matches)
        if len(pairs) != len(res.matches) or not _one_to_one(pairs):
            problems.append(f"{name} matches are not 1-1")
        if not _same((res.precision, res.recall, res.f1), _recount(pairs, gt)):
            problems.append(f"{name} P/R/F1 differs from a driver-side recount")
        output[name] = sorted(pairs)
    extra = {
        "bsl_config": f"n={bsl.n},{bsl.weighting},{bsl.measure},t={bsl.threshold}",
        "sigma_f1": sigma.f1,
        "paris_f1": paris.f1,
    }
    return Outcome(bsl.precision, bsl.recall, bsl.f1, output, problems, extra)


def _plain(x: Any) -> Any:
    """A pandas/numpy scalar as the matching Python scalar."""
    return x.item() if hasattr(x, "item") else x


def _baselines_probes(tr: Tracer) -> list[Probe]:
    tr.counters.update({"umc.rows_in": 0, "umc.not_one_to_one": 0})

    def observe_umc(out: pd.DataFrame, scored: pd.DataFrame, *args, **kwargs) -> None:
        tr.counters["umc.rows_in"] += len(scored)
        if not _one_to_one(_pdf_pairs(out)):
            tr.counters["umc.not_one_to_one"] += 1

    return [
        Probe(bsl_mod, "candidate_pairs_unpruned", "bsl.candidates"),
        Probe(bsl_mod, "entity_grams", "bsl.scoring"),
        Probe(bsl_mod, "weighted_grams", "bsl.scoring"),
        Probe(bsl_mod, "pair_similarities", "bsl.scoring"),
        Probe(umc_mod, "unique_mapping_clustering", "umc", spark=False, observe=observe_umc),
    ]


def _baselines_layers(tr: Tracer, kb: KB, handle, ref: Outcome) -> dict[str, float]:
    _, sigma, paris = handle
    candidates_s, scoring_s = tr.total_s("bsl.candidates"), tr.total_s("bsl.scoring")
    return {
        "bsl.candidates_s": candidates_s,
        "bsl.candidate_pairs": tr.rows("bsl.candidates"),
        "bsl.scoring_s": scoring_s,
        # all of BSL's Spark jobs but candidate generation: the scoring
        # spans plus the score collection that run_bsl does itself
        "bsl.scoring_jobs": tr.jobs("bsl.scoring") + tr.jobs("bsl"),
        "bsl.sweep_s": tr.total_s("bsl") - candidates_s - scoring_s,
        "umc.calls": tr.calls("umc"),
        "umc.rows_in": tr.counters["umc.rows_in"],
        "sigma.self_s": tr.self_s("sigma"),
        "sigma.jobs": tr.jobs("sigma"),
        "sigma.f1": sigma.f1,
        "paris.self_s": tr.self_s("paris"),
        "paris.f1": paris.f1,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "minoaner_yago",
            scaled(PROFILES["yago_imdb"], 0.5),
            _minoaner_run,
            _minoaner_traced,
            _minoaner_check,
            _minoaner_probes,
            _minoaner_layers,
        ),
        Workload(
            "baselines_restaurant",
            scaled(PROFILES["restaurant"], 0.25),
            _baselines_run,
            _baselines_traced,
            _baselines_check,
            _baselines_probes,
            _baselines_layers,
        ),
    )
}
