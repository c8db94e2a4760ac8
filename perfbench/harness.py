"""Spark session, isolated passes and metrics for one benchmark run."""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from pyspark import SparkContext
from pyspark.sql import SparkSession

from tracer import Tracer, job_counts
from workloads import Workload, make_kb

SETUP_REPEATS = 3
T0 = time.perf_counter()
SPARK_CONF = {
    # the configuration jobs/*.py use, on four local cores
    "spark.master": "local[4]",
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.memory": "2g",
    "spark.driver.host": "127.0.0.1",
}


def log(msg: str) -> None:
    print(f"perfbench {time.perf_counter() - T0:7.2f}s {msg}", file=sys.stderr, flush=True)


def start_spark(work: Path) -> SparkSession:
    """A fresh local session whose temporary files all stay under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ.pop("SPARK_LOCAL_DIRS", None)  # would override spark.local.dir
    builder = SparkSession.builder.appName("perfbench")
    for key, value in SPARK_CONF.items():
        builder = builder.config(key, value)
    spark = (
        builder.config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the driver JVM to exit."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def cached_mb(sc) -> float:
    """Storage memory held by cached frames, in MB."""
    return sum(i.memSize() + i.diskSize() for i in sc._jsc.sc().getRDDStorageInfo()) / 2**20


def peak_rss_mb(pid: int | str) -> float:
    """Peak resident set size of a process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class PassRecord:
    n: int
    traced: bool
    wall_s: float = 0.0
    jobs: int = 0
    stages: int = 0
    error: str = ""
    outcome: Any = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)

    def record(self) -> dict:
        out = self.outcome
        return {
            "n": self.n,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "jobs": self.jobs,
            "stages": self.stages,
            "error": self.error,
            "problems": self.problems,
            "digest": out.digest if out else None,
            "prf": [out.precision, out.recall, out.f1] if out else None,
            "extra": out.extra if out else None,
        }


class Runner:
    def __init__(self, spark, wl, seed: int, run_id: str):
        self.spark, self.wl, self.seed, self.run_id = spark, wl, seed, run_id
        self.sc = spark.sparkContext
        self.passes: list[PassRecord] = []
        self.kb = None
        self.fresh = False
        self.tracer = None
        self.handle = None

    def setup(self, repeats: int) -> list[float]:
        times = []
        for i in range(repeats):
            self.spark.catalog.clearCache()
            self.sc.setJobGroup(f"{self.run_id}/setup{i}", "setup")
            t0 = time.perf_counter()
            kb = make_kb(self.spark, self.wl.profile, self.seed)
            times.append(time.perf_counter() - t0)
            log(f"setup {i + 1}: {times[-1]:.2f}s")
        self.kb = kb
        self.fresh = True  # the cache holds just the inputs, materialized
        return times

    def run_pass(self, traced: bool = False, detail: bool = False) -> PassRecord:
        """One isolated pass: clear the cache, re-cache the inputs, time, check."""
        rec = PassRecord(len(self.passes) + 1, traced)
        self.passes.append(rec)
        group = f"{self.run_id}/p{rec.n}"
        if not self.fresh:
            self.spark.catalog.clearCache()
            self.kb.materialize()
        self.fresh = False
        self.sc.setJobGroup(group, f"pass {rec.n}")
        try:
            if traced:
                tr = self.tracer = Tracer(self.sc, group)
                t0 = time.perf_counter()
                with tr.instrument(self.wl.probes(tr)), tr.span("pass"):
                    handle = self.wl.traced(self.kb, tr)
                rec.wall_s = time.perf_counter() - t0
                rec.jobs, rec.stages = tr.jobs_total(), tr.stages_total()
            else:
                t0 = time.perf_counter()
                handle = self.wl.run(self.kb)
                rec.wall_s = time.perf_counter() - t0
                rec.jobs, rec.stages = job_counts(self.sc, group)
            log(f"pass {rec.n}{' (traced)' if traced else ''}: {rec.wall_s:.2f}s, {rec.jobs} jobs")
            self.sc.setJobGroup(f"{group}.check", "check")
            rec.outcome = self.wl.check(self.kb, handle, detail)
            log(f"pass {rec.n} checked")
            self.handle = handle
        except Exception:  # a failed pass is counted, not fatal
            rec.error = traceback.format_exc()
            print(rec.error, file=sys.stderr)
            return rec
        rec.problems = list(rec.outcome.problems)
        first = self.passes[0]
        if first.outcome is not None and rec is not first:
            if rec.outcome.output != first.outcome.output:
                rec.problems.append("output differs from the first pass of the run")
            if not traced and rec.jobs != first.jobs:
                rec.problems.append(
                    f"ran {rec.jobs} Spark jobs, the first pass {first.jobs}: "
                    "a pass must not reuse another pass's cache"
                )
        for p in rec.problems:
            print(f"pass {rec.n}: {p}", file=sys.stderr)
        return rec


def provenance(spark, wl, seed: int, kb, first: PassRecord | None) -> dict:
    conf = spark.sparkContext.getConf()
    return {
        "workload": wl.name,
        "profile": wl.profile.name,
        "seed": seed,
        **kb.counts(),
        "spark_version": spark.version,
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "driver_memory": conf.get("spark.driver.memory"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "match_digest": first.outcome.digest if first and first.outcome else None,
    }


def end_to_end(r: Runner, setup_times: list[float]) -> dict[str, float]:
    first = r.passes[0]
    out = first.outcome
    return {
        "wall_s": first.wall_s,
        "triples_per_s": r.kb.n_triples / first.wall_s,
        "setup_s": statistics.median(setup_times),
        "precision": out.precision,
        "recall": out.recall,
        "f1": out.f1,
        "jvm_cache_mb": cached_mb(r.sc),
        "py_peak_rss_mb": peak_rss_mb("self"),
    }


def per_layer(r: Runner) -> dict[str, float]:
    untraced, traced = r.passes[1], r.passes[2]
    layers = r.wl.layers(r.tracer, r.kb, r.handle, untraced.outcome)
    layers.update(
        {
            "kbgen.generate_s": r.kb.generate_s,
            "kbgen.triples": r.kb.n_triples,
            "pass.jobs": untraced.jobs,
            "pass.stages": untraced.stages,
            "trace.total_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    return layers


def select(values: dict[str, float], wanted: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, with their units."""
    if not values:
        return {}
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer this workload never calls did no work
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def run(wl: Workload, seed: int, seconds: float, trace: bool, wanted: list[dict], work: Path) -> dict:
    """One benchmark run in a fresh session: its result, provenance, passes, spans."""
    run_id = f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    spark = start_spark(work)
    log("session started")
    try:
        r = Runner(spark, wl, seed, run_id)
        if trace:
            r.setup(1)
            r.run_pass()  # cold: pays JIT and code generation
            r.run_pass(detail=True)
            r.run_pass(traced=True)
            values = {} if any(p.failed for p in r.passes) else per_layer(r)
            log("layer statistics taken")
        else:
            setup_times = r.setup(SETUP_REPEATS)
            start = time.perf_counter()
            first = r.run_pass()
            # read before any further pass, so memory is the first pass's
            values = {} if first.failed else end_to_end(r, setup_times)
            while time.perf_counter() - start < seconds:
                r.run_pass()
        metrics = select(values, wanted)
        jvm_rss = peak_rss_mb(spark._jvm.java.lang.ProcessHandle.current().pid())
        prov = provenance(spark, wl, seed, r.kb, r.passes[0])
        spans = r.tracer.dump(r.tracer.spans[0].start) if r.tracer else []
    finally:
        log("stopping the session")
        stop_spark(spark)
        log("session stopped")
    failed = sum(p.failed for p in r.passes)
    return {
        "run_id": run_id,
        "result": {
            "correct": failed == 0,
            "attempted": len(r.passes),
            "failed": failed,
            "metrics": metrics,
        },
        "provenance": prov,
        # the driver JVM's peak RSS follows the collector's heap sizing more
        # than the program, so it is recorded here but not reported
        "jvm_peak_rss_mb": jvm_rss,
        "passes": [p.record() for p in r.passes],
        "spans": spans,
    }
