"""Record the expected ``cli_stdout_sha256`` of ``cli_witness`` per seed.

    python3 perfbench/digests.py --seeds 0-127
    python3 perfbench/digests.py --seeds 0-15 --tiny

Runs every fixture of each seed once, untimed, and merges the digests into
``perfbench/expected_digests.json`` (under ``full`` or ``tiny``).  ``run.py``
counts a run whose digest differs from the recorded one as a failure, so the
CLI's output bytes cannot change unnoticed.  Re-record only on purpose, when
the inputs themselves change (for example a change to ``bht.sampling``).
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from suite import seeds  # noqa: E402

DIGESTS = HERE / "expected_digests.json"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"full": {}, "tiny": {}}
    table = recorded["tiny" if args.tiny else "full"]
    for seed in args.seeds:
        workdir = HERE / ".work" / ("digests-%d-%d" % (seed, os.getpid()))
        wl = workloads.CliWitness(seed, workdir, tiny=args.tiny)
        try:
            wl.write_fixtures()
            wl.check()
        finally:
            wl.close()
        if wl.failures:
            print("seed %d failed: %s" % (seed, next(iter(wl.failures.values()))), file=sys.stderr)
            return 1
        table[str(seed)] = wl.digest()
        print(seed, table[str(seed)], flush=True)
    for size in recorded:
        recorded[size] = dict(sorted(recorded[size].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
