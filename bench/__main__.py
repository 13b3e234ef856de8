"""``python -m bench run``: run the benchmark's workloads.

Each run is a fresh child process with the environment pinned: the
program's own tracer, sanitizer, race checker and flight recorder are
off, the tuning cache is a fresh file and ``TMPDIR`` a directory inside
``.bench_out/``, and BLAS
runs one thread so the door, the workers and the BLAS pool never
oversubscribe the cores.  For every run the parent prints each metric by
name, unit and sample count, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  The exit
code is non-zero when any output check fails or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.child import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
#: A run that has not finished by then is killed and reported failed.
CHILD_TIMEOUT_S = 170.0
#: Measured seconds of a ``--smoke`` run.
SMOKE_SECONDS = 2.0
#: Variables that switch on the program's own instrumentation, which
#: would change the work measured.
UNSET = (
    "REPRO_TRACE", "REPRO_SANITIZE", "REPRO_RACE", "REPRO_FLIGHT",
    "REPRO_FLIGHT_DIR", "REPRO_TUNE", "REPRO_NUM_THREADS",
)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_env(tag: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_TUNE_CACHE"] = str(OUT_DIR / "tmp" / f"tune-{tag}.json")
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Dict[str, Any]:
    """One workload run in a fresh process; returns its raw record."""
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    result = OUT_DIR / "tmp" / f"{tag}.json"
    tune = OUT_DIR / "tmp" / f"tune-{tag}.json"
    for stale in (result, tune):
        stale.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR), "--result", str(result),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=pinned_env(tag), timeout=CHILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        tune.unlink(missing_ok=True)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{workload}: run exited with code {proc.returncode}")
    record = json.loads(result.read_text())
    result.unlink()
    return record


def reported_metrics(
    record: Dict[str, Any], spec: Dict[str, Any], workload: str, trace: int
) -> Dict[str, Dict[str, Any]]:
    """The metrics of ``BENCHMARK.json`` for this mode, by name."""
    from bench import serve, train

    measured = train.LAYERS if workload == "train-paper" else serve.LAYERS
    out = {}
    if trace == 0:
        for m in spec["end_to_end"]:
            out[m["name"]] = {
                "value": float(record["e2e"][m["name"]]),
                "unit": m["unit"],
                "n": record["samples"][m["name"]],
            }
        return out
    for m in spec["per_layer"]:
        name = m["name"]
        if name in record["layer"]:
            value = float(record["layer"][name])
        elif name not in measured:
            value = 0.0  # a layer this workload does not run
        else:
            raise RuntimeError(f"{workload}: per-layer metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def report(run: Dict[str, Any]) -> str:
    lines = [
        f"== {run['workload']} seed {run['seed']} trace {run['trace']}: "
        f"{'correct' if run['correct'] else 'CHECKS FAILED'}, "
        f"{run['failed']} of {run['attempted']} failed"
    ]
    for name, m in run["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        lines.append(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{n}")
    rec = run["record"]
    for flag in rec.get("flags", []):
        lines.append(f"  flag: {flag}")
    for key, problems in rec.get("checks", {}).items():
        if problems and isinstance(problems, list):
            lines.append(f"  {key}: {problems[:3]}")
    trace = rec.get("trace") or {}
    if "coverage" in trace:
        cov = trace["coverage"]
        lines.append(
            f"  trace: {cov['checked']} {trace['roots']} spans, children cover "
            f">= {100 * cov['min_share']:.2f}% of each; files {trace.get('files')}"
        )
        from bench.trace import format_layer_table

        if trace.get("table_tag"):
            lines.append(f"  self time of the {trace['table_tag']} rung's requests:")
        lines.append(format_layer_table(trace["layers"]))
    cal = rec["calibration_s"]
    for kind in ("compute", "memory"):
        lines.append(
            f"  {kind} calibration probe: {cal['before'][kind] * 1e3:.2f} ms before, "
            f"{cal['after'][kind] * 1e3:.2f} ms after"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="python -m bench")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads and print their metrics")
    r.add_argument("--workload", choices=WORKLOADS, help="default: all three")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument(
        "--seconds", type=float,
        help="measured seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed, seed+1, ...")
    r.add_argument(
        "--smoke", action="store_true",
        help=f"tiny inputs and {SMOKE_SECONDS:g} s runs, for tests",
    )
    r.add_argument("--out", type=Path, help="results file (default under .bench_out/)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        seconds = SMOKE_SECONDS
    else:
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0 or args.runs < 1:
        print("--seconds and --runs must be positive", file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    out = args.out or OUT_DIR / (
        f"results-{args.workload or 'all'}-seed{args.seed}-trace{args.trace}.json"
    )

    runs: List[Dict[str, Any]] = []
    status = 0
    for workload in workloads:
        for k in range(args.runs):
            seed = args.seed + k
            try:
                record = run_child(workload, seed, seconds, args.trace, args.smoke)
                metrics = reported_metrics(record, spec, workload, args.trace)
            except RuntimeError as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                status = 1
                continue
            run = {
                "workload": workload, "seed": seed, "trace": args.trace,
                "seconds": seconds, "smoke": args.smoke,
                "correct": bool(record["correct"]),
                "attempted": int(record["attempted"]),
                "failed": int(record["failed"]),
                "metrics": metrics, "record": record,
            }
            runs.append(run)
            if not run["correct"]:
                status = 1
            print(report(run))
            line = {
                key: run[key] for key in ("correct", "attempted", "failed")
            }
            line["metrics"] = {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items()
            }
            print(json.dumps(line), flush=True)

    machine = runs[0]["record"]["machine"] if runs else {}
    payload = {
        "meta": {
            "git_commit": git_commit(),
            "seed": args.seed,
            "trace": args.trace,
            "seconds": seconds,
            "smoke": args.smoke,
            "nproc": machine.get("nproc"),
            "cpu_model": machine.get("cpu_model"),
            "fingerprint": machine.get("fingerprint"),
            "fingerprint_hash": machine.get("fingerprint_hash"),
        },
        "runs": runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, default=float) + "\n")
    print(f"results: {out}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
