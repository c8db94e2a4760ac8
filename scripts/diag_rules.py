"""Per-rule diagnosis of MinoanER false positives on a profile.

    PYTHONPATH=src python scripts/diag_rules.py [profile] [sf]
"""
import sys

from pyspark.sql import functions as F

from repro.core import DEFAULT_CONFIG, run_minoaner
from repro.kbgen import PROFILES, generate_kb_pair, scaled
from repro.tables.__main__ import spark_session

prof_name = sys.argv[1] if len(sys.argv) > 1 else "restaurant"
sf = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5

spark = spark_session("diag_rules")

pair = generate_kb_pair(spark, scaled(PROFILES[prof_name], sf), seed=7)
res = run_minoaner(pair.triples1, pair.triples2, pair.gt, DEFAULT_CONFIG)
print("PRF:", res.prf)
ok = pair.gt.withColumn("hit", F.lit(1))
res.matches.join(ok, ["eid1", "eid2"], "left").groupBy("rule").agg(
    F.count("*").alias("n"), F.sum(F.coalesce("hit", F.lit(0))).alias("correct")
).show()
false = (
    res.matches.join(pair.gt, ["eid1", "eid2"], "left_anti")
    .join(res.graph.beta_out1.select("eid1", "eid2", "beta"), ["eid1", "eid2"], "left")
    .join(res.graph.gamma_out1.select("eid1", "eid2", "gamma"), ["eid1", "eid2"], "left")
)
false.orderBy("rule", "eid1").show(40)
spark.stop()
