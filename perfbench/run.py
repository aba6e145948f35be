"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload group_law --seed 1 --seconds 50 --trace 0

Builds the workload's inputs from the seed (the timed set-up), measures a
closed loop with one client for ``--seconds`` seconds, checks every answer,
and prints one JSON object as the last line of stdout.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it measures half the
time untraced and half traced, and reports the per-layer metrics plus the
tracing overhead.  A detailed result file goes to ``perfbench/out/``.
The exit status is nonzero when any op failed or the library is missing.
"""

import time

# Set-up is timed from here: the script's start, after the interpreter's own
# start-up, which varies by tens of milliseconds from process to process.
T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Extra fresh-interpreter set-ups, half before and half after the timed loop
# so that they sample the host's speed over the whole run; setup_s is the
# median of these and the run's own set-up.
SETUP_PROBES = 4
# Untimed ops before the timed loop (the first round's first ops ran up to
# 1.4 times slower than their later repeats).
WARMUP_SECONDS = 1.0
E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def issue(wl, key, op) -> float:
    """Run one op and record its answer; return its latency in seconds.
    An exception is a failed op, and the caller goes on."""
    t = time.perf_counter()
    try:
        result = op()
    except Exception as err:
        latency = time.perf_counter() - t
        wl.issued[key] += 1
        wl.fail(key, "".join(traceback.format_exception_only(type(err), err)).strip())
        return latency
    latency = time.perf_counter() - t
    wl.record(key, result)
    return latency


def warm_up(wl, seconds=WARMUP_SECONDS) -> int:
    """Untimed ops from the first round for about ``seconds``, so that the
    timed loop starts with warm caches; their answers are still checked.
    Returns the number of ops issued."""
    start = time.perf_counter()
    n = 0
    for key, op in wl.round(0):
        if n and time.perf_counter() - start >= seconds:
            break
        issue(wl, key, op)
        n += 1
    return n


def measure(wl, seconds, tracer=None, tail=True):
    """Closed loop, one client: issue whole rounds of ops until ``seconds``
    have passed and, if ``tail``, the tail percentile has ten samples beyond
    it (or twice ``seconds`` have passed)."""
    latencies, keys = [], []
    start = time.perf_counter()
    r = 0
    while True:
        for key, op in wl.round(r):
            if tracer is not None:
                tracer.op_id = len(keys)
            latencies.append(issue(wl, key, op))
            keys.append(key)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 2 * seconds:
            break
        if elapsed >= seconds and (not tail or len(latencies) * (100 - wl.tail_percentile) >= 1000):
            break
    if tracer is not None:
        tracer.op_id = -1
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    tail_s = cuts[wl.tail_percentile - 1]
    return {
        "ops": len(latencies),
        "busy_s": sum(latencies),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * cuts[49],
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": sum(1 for x in latencies if x > tail_s),
        "keys": keys,
        "latencies_ms": [round(1e3 * x, 4) for x in latencies],
        "rounds": r,
    }


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter building the same inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("group_law", "large_tables", "cli_witness"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--digests", type=Path, default=HERE / "expected_digests.json",
                   help="expected cli_stdout_sha256 per seed (see digests.py)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import bht
    except ImportError as err:
        print("cannot import bht from %s: %s" % (SRC, err), file=sys.stderr)
        return 2
    if Path(bht.__file__).resolve().parent.parent != SRC:
        print("bht was imported from %s, not from %s" % (bht.__file__, SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workdir = HERE / ".work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    wl = workloads.make(args.workload, args.seed, workdir, tiny=args.tiny, digests=args.digests)
    try:
        setup_main = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        t = time.perf_counter()
        wl.write_fixtures()
        fixture_write_s = time.perf_counter() - t
        return run(args, wl, setup_main, fixture_write_s)
    finally:
        wl.close()


def run(args, wl, setup_main, fixture_write_s) -> int:
    setups = [setup_main] + [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
    # The inputs live for the whole run: move them out of the collector's
    # reach, so that its pauses in the timed loop come from the ops' own
    # garbage and not from re-scanning the input pool.
    gc.collect()
    gc.freeze()
    layers, spans_bad, overhead = None, 0, None
    warmup_ops = warm_up(wl)
    if args.trace:
        import tracer as tracing

        # the two halves report no tail, so they need not wait for one
        e2e = measure(wl, args.seconds / 2, tail=False)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, args.seconds / 2, tr, tail=False)
        finally:
            tr.remove()
        keys = traced["keys"]
        layers = tr.layer_metrics(len(keys), lambda op: wl.op_size(keys[op]) if op >= 0 else None)
        layers["trace.overhead.throughput_ratio"] = e2e["throughput_ops_s"] / traced["throughput_ops_s"]
        layers["trace.overhead.latency_p50_ratio"] = traced["latency_p50_ms"] / e2e["latency_p50_ms"]
        overhead = {k: traced[k] for k in ("ops", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms")}
        spans_bad = tr.invalid_spans()
        layer_properties = {k: layers.pop(k) for k in tracing.LAYER_PROPERTIES}
        units = {**tracing.LAYER_METRICS, **tracing.LAYER_PROPERTIES}
    else:
        e2e = measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted = warmup_ops + len(e2e["keys"]) + (len(traced["keys"]) if args.trace else 0)
    issued_before_check = sum(wl.issued.values())
    wl.check()
    attempted += sum(wl.issued.values()) - issued_before_check
    failed = wl.failed_ops()
    correct = failed == 0 and spans_bad == 0

    e2e_values = {
        "throughput_ops_s": e2e["throughput_ops_s"],
        "latency_p50_ms": e2e["latency_p50_ms"],
        "latency_tail_ms": e2e["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e_values.items()}

    properties = wl.properties()
    if args.trace:
        properties["layer_properties"] = layer_properties
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "load_model": "closed loop, 1 client, 1 thread, in-process",
        "ops": e2e["ops"],
        "busy_s": e2e["busy_s"],
        "tail_percentile": e2e["tail_percentile"],
        "tail_samples_beyond": e2e["tail_samples_beyond"],
        "warmup_ops": warmup_ops,
        "setup_samples_s": setups,
        "fixture_write_s": fixture_write_s,
        "error_rate": failed / max(1, attempted),
        "end_to_end": e2e_values,
        "per_layer": layers,
        "traced_phase": overhead,
        "invalid_spans": spans_bad,
        "inputs": properties,
        "latencies_ms": e2e["latencies_ms"],
        "rounds": e2e["rounds"],
        "failures": [str(m) for m in list(wl.failures.values())[:20]],
    }
    for k, v in e2e_values.items():
        note = ""
        if k == "latency_tail_ms":
            note = "  (p%g, %d samples of %d beyond)" % (
                e2e["tail_percentile"], e2e["tail_samples_beyond"], e2e["ops"])
        print("%-18s %14.4f %s%s" % (k, v, E2E_UNITS[k], note))
    print("%-18s %14.6f    (%d failed of %d attempted)" % (
        "error_rate", report["error_rate"], failed, attempted))
    if args.trace:
        for k, v in layers.items():
            print("%-40s %14.6g %s" % (k, v, units[k]))
        for k, v in layer_properties.items():
            print("%-40s %14.6g %s  (input/output property)" % (k, v, units[k]))
        print("tracing overhead: untraced %.2f ops/s, traced %.2f ops/s" % (
            e2e["throughput_ops_s"], overhead["throughput_ops_s"]))
    if "cli_stdout_sha256" in properties:
        print("cli_stdout_sha256 %s (%s)" % (properties["cli_stdout_sha256"], (
            "checked against %s" % args.digests.name) if properties["cli_stdout_sha256_checked"]
            else "no recorded digest for this seed"))
    for message in report["failures"]:
        print("FAILURE: %s" % message)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "BENCH_%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    (out_dir / (stem + ".json")).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tr.write(out_dir / (stem + "_spans.tsv.gz"))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
