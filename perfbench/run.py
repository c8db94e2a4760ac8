"""MinoanER benchmark: one workload, one seed, one fresh Spark session.

    python3 perfbench/run.py --workload minoaner_yago --seed 7 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/``. The metrics, their units and the workloads are defined in
``BENCHMARK.json`` at the root, and perfbench/README.md explains them.

With ``--trace 0`` a run sets up the input three times (setup_s is the
median), then times the first pass of the workload in the fresh session,
which is how ``jobs/*.py`` run it. Further passes follow while the run is
younger than ``--seconds``; they are only checked, never reported, so the
reported numbers mean the same thing however fast the program is.
With ``--trace 1`` a run makes two untraced passes and then a traced one,
and reports the per-layer metrics of the traced pass.

Before every pass the Spark cache is cleared and the inputs are cached
again, so no pass can be served from an earlier pass's cached frames;
every pass must then run as many Spark jobs as the first. Each pass and
each span runs under its own Spark job group.

The last line of standard output is the result, as one JSON object; the
line before it is the run's provenance. The full record, spans included,
goes to ``.perfbench/results/``. All temporary files stay under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path, src = ROOT / "BENCHMARK.json", ROOT / "src"
    if not (src / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(src)]
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import harness

    record = harness.run(wl, args.seed, args.seconds, bool(args.trace), wanted, WORK)
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{record['run_id']}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
