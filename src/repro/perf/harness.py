"""The one harness behind ``repro bench <suite>``.

Every suite module exposes ``run(*, quick, repeats, seed) -> dict`` and
builds its result with :func:`record`, so every ``BENCH_<suite>.json``
has the same top-level keys (:data:`RECORD_KEYS`):

* ``suite``, ``quick``, ``seed`` — what ran;
* ``machine`` — the tuning-cache machine fingerprint, its hash under
  ``fingerprint``, and ``nproc``;
* ``measured`` — wall-clock values only;
* ``modelled`` — cost-model and ``VectorMachine`` values only (the two
  never share a key, so a modelled number cannot pass as measured);
* ``gates`` — ``{name, value, op, threshold, enforced, pass}`` each;
* ``pass`` — every *enforced* gate passes.  ``repro bench`` exits 1
  exactly when this is false.  A gate recorded with ``enforced=False``
  states its verdict without failing the run (wall-clock criteria too
  noisy to gate on a shared host).
"""

from __future__ import annotations

import importlib
import json
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

#: ``repro bench`` suite name -> (module with ``run``, default output).
SUITES: Dict[str, Tuple[str, str]] = {
    "smsv": ("repro.perf.bench_smsv", "BENCH_smsv.json"),
    "sell": ("repro.perf.bench_sell", "BENCH_sell.json"),
    "serve": ("repro.serve.bench", "BENCH_serve.json"),
    "obs": ("repro.obs.bench", "BENCH_obs.json"),
}

RECORD_KEYS: Tuple[str, ...] = (
    "suite", "quick", "seed", "machine", "measured", "modelled",
    "gates", "pass",
)

_OPS = {">=": operator.ge, "<": operator.lt}


@dataclass(frozen=True)
class Gate:
    """One criterion: ``value op threshold``."""

    name: str
    value: float
    op: str
    threshold: float
    enforced: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "op": self.op,
            "threshold": self.threshold,
            "enforced": self.enforced,
            "pass": bool(_OPS[self.op](self.value, self.threshold)),
        }


def _machine() -> Dict[str, Any]:
    """The machine every record is measured on."""
    from repro.tune.fingerprint import fingerprint_hash, machine_fingerprint

    return {
        **machine_fingerprint(),
        "fingerprint": fingerprint_hash(),
        "nproc": os.cpu_count(),
    }


def record(
    suite: str,
    *,
    quick: bool,
    seed: int,
    measured: Mapping[str, Any],
    modelled: Mapping[str, Any],
    gates: Sequence[Gate],
) -> Dict[str, Any]:
    """Assemble one result record in the common schema."""
    shared = set(measured) & set(modelled)
    if shared:
        raise ValueError(f"measured and modelled share keys {sorted(shared)}")
    rows = [g.as_dict() for g in gates]
    return {
        "suite": suite,
        "quick": quick,
        "seed": seed,
        "machine": _machine(),
        "measured": dict(measured),
        "modelled": dict(modelled),
        "gates": rows,
        "pass": all(g["pass"] for g in rows if g["enforced"]),
    }


def run_suite(
    name: str, *, quick: bool = False, repeats: int | None = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Import the suite's module lazily and run it."""
    module = importlib.import_module(SUITES[name][0])
    return module.run(quick=quick, repeats=repeats, seed=seed)


def write_record(rec: Mapping[str, Any], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, dict)):
        return f"[{len(value)} entries]"
    return str(value)


def render(rec: Mapping[str, Any]) -> str:
    """Terminal summary of any record: values, then gate verdicts."""
    m = rec["machine"]
    lines = [
        f"{rec['suite']} ({'quick' if rec['quick'] else 'full'}, seed "
        f"{rec['seed']}) on {m['cpu_model']}, nproc {m['nproc']}, "
        f"fingerprint {m['fingerprint']}"
    ]
    for kind in ("measured", "modelled"):
        for key, value in sorted(rec[kind].items()):
            lines.append(f"  {kind:<8} {key:<28} {_scalar(value)}")
    for g in rec["gates"]:
        verdict = "PASS" if g["pass"] else "FAIL"
        note = "" if g["enforced"] else " (recorded, not enforced)"
        lines.append(
            f"  gate     {g['name']}: {_scalar(g['value'])} {g['op']} "
            f"{_scalar(g['threshold'])} [{verdict}]{note}"
        )
    lines.append(f"pass: {rec['pass']}")
    return "\n".join(lines)
