"""One workload run in a fresh process (started by ``python -m bench``).

The parent pins the environment before this process imports the
program; this module runs the workload, times the calibration probe
before and after it, writes the spans of a traced run, and leaves the
raw record as JSON at ``--result``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
from pathlib import Path

WORKLOADS = ("train-paper", "serve-heavy", "serve-tenants")
#: Share of every root span (request, fit) its child spans must cover.
MIN_COVERAGE = 0.95


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, out_dir: Path):
    from bench import host, serve, train

    before = host.calibration_probe()
    if name == "train-paper":
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="data-") as tmp:
            record = train.run(seed, seconds, traced, smoke, Path(tmp))
    else:
        record = serve.run(name, seed, seconds, traced, smoke)
    record["calibration_s"] = {"before": before, "after": host.calibration_probe()}
    record["machine"] = host.machine_meta()
    return record


def stop_resource_tracker() -> None:
    """The fleet's shared memory starts multiprocessing's resource
    tracker in this process; stop it and wait for it, so that no process
    of the run outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m bench.child")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    try:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, args.out_dir,
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_resource_tracker()
    rec = record.pop("recorder", None)
    if rec is not None:
        cov = record["trace"]["coverage"]
        if cov["min_share"] < MIN_COVERAGE:
            record["flags"].append(
                f"trace children cover only {100 * cov['min_share']:.1f}% "
                f"of some {record['trace']['roots']} span"
            )
        stem = args.out_dir / f"trace-{args.workload}-seed{args.seed}"
        rec.write(stem.with_suffix(".jsonl"), stem.with_suffix(".chrome.json"))
        record["trace"]["files"] = [f"{stem.name}.jsonl", f"{stem.name}.chrome.json"]
        record["trace"]["layers"] = rec.layer_table(record["trace"].get("table_tag"))
    args.result.write_text(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
