"""Rewrite the golden report digests from one sample of each workload.

    python3 bench/make_golden.py [--smoke] [workload ...]

Run it only at a commit whose reports are known to be right: every
later run of the benchmark is checked against what it writes.
"""

from __future__ import annotations

import argparse
import json
import time

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("workloads", nargs="*", default=sorted(run.workloads.WHY))
    args = parser.parse_args()
    for workload in args.workloads:
        runs, _ = run.plan(workload, 0, args.smoke)
        rec = run.run_sample(workload, 0, args.smoke, runs, 0, None, time.monotonic() + 600)
        if rec is None:
            raise SystemExit(f"{workload}: the sample failed")
        golden = {}
        for entry in rec["suites"]:
            if entry["exit"] != 0 or not entry["passed"]:
                raise SystemExit(f"{workload}: {' '.join(entry['argv'])} does not pass")
            golden[run.golden_key(entry["argv"])] = {
                "sha256": entry["digest"], "checks": entry["checks"]
            }
        path = run.BENCH / "golden" / f"{'smoke-' if args.smoke else ''}{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"{path.name}: {len(golden)} suites")


if __name__ == "__main__":
    main()
