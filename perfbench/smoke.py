"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that the
answer checks catch a deliberately wrong table or output, that a CLI output
digest other than the recorded one fails the run, and that a traced run
yields spans with valid parents and leaves no wrapper behind.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from bht import element  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, *extra, returncode=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == returncode, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(workload, trace):
    return json.loads((HERE / "out" / ("BENCH_%s_seed3_trace%d.json" % (workload, trace))).read_text())


def test_every_metric_is_emitted():
    for name in workloads.NAMES:  # group_law too, though BENCHMARK.json omits it
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(name, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in BENCH[key]}, (name, trace)
            for m in BENCH[key]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
                assert isinstance(result["metrics"][m["name"]]["value"], float)
        properties = _report(name, 1)["inputs"]["layer_properties"]
        assert set(properties) == set(tracer.LAYER_PROPERTIES), name
    assert _report("cli_witness", 0)["inputs"]["cli_stdout_sha256_checked"]


def test_changed_digest_fails():
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    recorded["tiny"]["3"] = "0" * 64
    changed = HERE / ".work" / "changed_digests.json"
    changed.parent.mkdir(exist_ok=True)
    changed.write_text(json.dumps(recorded))
    try:
        result = _run("cli_witness", 0, "--digests", str(changed), returncode=1)
    finally:
        changed.unlink()
    assert not result["correct"] and result["failed"] == 1
    assert "differs from the recorded" in " ".join(_report("cli_witness", 0)["failures"])


def _swap_targets(t):
    (d0, r0), (d1, r1), *rest = t.cells
    return element.TableElement(t.space, [(d0, r1), (d1, r0)] + rest)


def test_mutated_tables_fail_the_checks():
    wl = workloads.GroupLaw(5, tiny=True)
    key, (f, _, h) = next((i, t) for i, t in enumerate(wl.triples) if len(t[0].cells) >= 2)
    wl.triples[key] = (f, f, h)
    wl.record(key, wl._op(f, f, h)())
    wl.check()
    assert not wl.failures
    wl.triples[key] = (f, _swap_targets(f), h)  # equals(f, g) was answered for g = f
    wl.check()
    assert "point oracle" in wl.failures[key]

    wl = workloads.LargeTables(5, tiny=True)
    key, op = wl.round(0)[0]
    rebuilt, fg, back, support = op()
    wl.record(key, (rebuilt, _swap_targets(fg), back, support))
    wl.check()
    assert "after g" in wl.failures[key]


def test_fail_lines_and_exit_codes_count():
    wl = workloads.CliWitness(5, HERE / ".work" / "smoke", tiny=True)
    try:
        wl.record(0, (0, "witness x\n", 0, "ok a\nFAIL b\n", ""))
        assert "only ok lines" in wl.failures[0]
        wl.record(1, (2, "", 0, "ok a\n", "parse error"))
        assert "exit codes" in wl.failures[1]
    finally:
        wl.close()


def test_traced_spans_have_valid_parents():
    original = element.compose
    wl = workloads.CliWitness(7, HERE / ".work" / "smoke", tiny=True)
    wl.write_fixtures()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert element.compose is not original
        for i, (key, op) in enumerate(wl.round(0)):
            tr.op_id = i
            wl.record(key, op())
    finally:
        tr.remove()
        wl.close()
    assert element.compose is original
    assert not wl.failures
    assert len(tr.start) > 0 and tr.invalid_spans() == 0
    assert any(p >= 0 for p in tr.parent)
    own = tr.self_times()
    assert all(t >= 0 for t in own)
    names = {tr.names[n] for n in tr.name}
    assert {"cli.main", "verify.run_checks", "element.compose", "textio.parse_witness"} <= names


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
