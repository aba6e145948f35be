"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10 --trace 0 1 --out perfbench/out/BENCH_all.json

For each workload, seed and trace setting this runs ``run.py`` once (one
process at a time), then prints, per end-to-end metric, the median of the
seeds, its quartiles and the quartile spread as a share of the median (the
figure a run-to-run bound is compared against), and for traced runs the
median of each per-layer metric.  Everything it measured is written to
``--out``; it exits nonzero if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seeds, default=[1])
    p.add_argument("--trace", type=int, nargs="+", default=[0, 1], choices=(0, 1))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", type=Path, default=HERE / "out" / "BENCH_suite.json")
    args = p.parse_args(argv)

    runs, ok = [], True
    for workload in args.workloads:
        for trace in args.trace:
            for seed in args.seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=str(HERE.parent), capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    ok = False
                    print("FAILED %s seed %d trace %d: %s" % (
                        workload, seed, trace, (proc.stderr or proc.stdout).strip()[-800:]))
                    continue
                report = json.loads((HERE / "out" / ("BENCH_%s_seed%d_trace%d.json" % (
                    workload, seed, trace))).read_text())
                del report["latencies_ms"]  # kept in the per-run file only
                runs.append(report)
                result = json.loads(lines[-1])
                print("%s seed %d trace %d: %s" % (workload, seed, trace, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items())
                    if trace == 0 or not k.startswith(("witness.", "vembed.", "textio.")))),
                    flush=True)

    summary = {}
    print("\n%-14s %-18s %12s %12s %12s %8s" % ("workload", "metric", "median", "q1", "q3", "spread"))
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for metric in (m["name"] for m in bench["end_to_end"]):
            values = [r["end_to_end"][metric] for r in mine]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            summary["%s/%s" % (workload, metric)] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
            print("%-14s %-18s %12.5g %12.5g %12.5g %8.4f" % (workload, metric, med, q1, q3, rel))
        traced = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        for metric in (traced[0]["per_layer"] if traced else {}):
            med = statistics.median(r["per_layer"][metric] for r in traced)
            summary["%s/%s" % (workload, metric)] = {"median": med}
        digests = {}
        for r in runs:
            if r["workload"] == workload and "cli_stdout_sha256" in r["inputs"]:
                digests.setdefault(r["seed"], set()).add(r["inputs"]["cli_stdout_sha256"])
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                ok = False
            print("%-14s seed %d cli_stdout_sha256 %s%s" % (
                workload, seed, " ".join(sorted(found)), "  MISMATCH" if len(found) > 1 else ""))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
