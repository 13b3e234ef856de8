"""Compare two results files of ``python -m bench run``.

    python3 bench/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric it prints each side's median
and quartiles, the change of the median against the metric's bound from
``BENCHMARK.json``, and a verdict:

``regression``  the change's median is worse than the parent's by more
                than the bound;
``gain``        the change wins at least nine tenths of the runs paired
                by position and the medians differ by more than the
                parent's inter-quartile distance;
``unresolved``  the parent's own spread exceeds the bound, so the
                comparison cannot tell, unless every run of the change
                beats every run of the parent;
``same``        otherwise.

Per-layer metrics of traced runs are listed side by side without a
verdict: they have no bound.  The machine facts and the calibration
probe of both files are printed first, so drift of the machine between
the two sets shows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: python3 bench/compare.py
    sys.path.insert(0, str(ROOT))

from bench.stats import quartiles  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"


def summary(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def collect(payload: Dict) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` over the file's runs."""
    out: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for run in payload["runs"]:
        per = out.setdefault((run["workload"], run["trace"]), {})
        for name, m in run["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def verdict(a: List[float], b: List[float], bound: float, lower_better: bool) -> Tuple[float, str]:
    """Relative change of the median (positive = worse) and its verdict."""
    sign = 1.0 if lower_better else -1.0
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = (qa3 - qa1) / abs(ma) if ma else float("inf")
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regression"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa3 - qa1:
        return worse, "gain"
    return worse, "same"


def describe(payload: Dict) -> str:
    meta = payload["meta"]
    cal = [r["record"]["calibration_s"] for r in payload["runs"]]

    def probe_ms(when: str, kind: str) -> float:
        return statistics.median(c[when][kind] for c in cal) * 1e3 if cal else float("nan")

    probes = ", ".join(
        f"{kind} {probe_ms('before', kind):.2f} ms before / {probe_ms('after', kind):.2f} ms after"
        for kind in ("compute", "memory")
    )
    return (
        f"commit {meta.get('git_commit')}, {meta.get('nproc')} cpus "
        f"({meta.get('cpu_model')}), machine {meta.get('fingerprint_hash')}, "
        f"{len(payload['runs'])} runs, calibration probe medians: {probes}"
    )


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [json.loads(Path(p).read_text()) for p in argv]
    print(f"A: {argv[0]}: {describe(sides[0])}")
    print(f"B: {argv[1]}: {describe(sides[1])}")
    if sides[0]["meta"].get("fingerprint_hash") != sides[1]["meta"].get("fingerprint_hash"):
        print("warning: the two files come from different machines")
    a_all, b_all = collect(sides[0]), collect(sides[1])
    regressions = 0
    for key in sorted(set(a_all) & set(b_all)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':<30} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} change  bound  verdict")
        for name in sorted(set(a_all[key]) & set(b_all[key])):
            a, b = a_all[key][name], b_all[key][name]
            cols = f"  {name:<30} {summary(a):<34} {summary(b):<34}"
            m = bounds.get(name)
            if m is None:
                print(cols)
                continue
            worse, v = verdict(a, b, m["bound"], m["better"] == "lower")
            regressions += v == "regression"
            print(f"{cols} {100 * worse:+6.1f}% {100 * m['bound']:4.0f}%  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
