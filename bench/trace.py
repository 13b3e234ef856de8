"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around its calls into the
program's public functions.  The program's global tracer (``repro.obs``)
is deliberately not used: turning it on makes the scheduler run extra
measurement probes, which would change the work being timed.

A span is ``(id, name, start, end, parent, rid, bid, tag)``: ``rid`` is
the request (or fit) the span belongs to, ``bid`` the batch (or job)
that carried it and ``tag`` the rung a request was offered in.  Spans
are kept in memory and written out once, at the end of the run, as
JSONL and as a chrome://tracing file.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.stats import percentile


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    rid: Optional[int] = None
    bid: Optional[int] = None
    tag: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanRecorder:
    """In-memory span store; ``add`` returns the new span's id, to be
    passed as ``parent`` to its children."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        bid: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> int:
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, rid, bid, tag))
        return sid

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover."""
        kids = self.children()
        return {
            s.id: s.duration
            - covered((s.start, s.end), ((c.start, c.end) for c in kids.get(s.id, ())))
            for s in self.spans
        }

    def coverage(self, root_names: Sequence[str]) -> Dict[str, float]:
        """For spans named in ``root_names``: the smallest share of a
        span's duration its children cover, and how many were checked."""
        kids = self.children()
        worst = 1.0
        n = 0
        for s in self.spans:
            if s.name not in root_names or s.duration <= 0.0:
                continue
            parts = [(c.start, c.end) for c in kids.get(s.id, ())]
            worst = min(worst, covered((s.start, s.end), parts) / s.duration)
            n += 1
        return {"checked": n, "min_share": worst}

    def layer_table(self, tag: Optional[str] = None) -> List[Dict[str, float]]:
        """Per span name: count, total and median self time, and share
        of the summed root time (roots are spans without a parent).
        With ``tag``, only the spans carrying it."""
        selfs = self.self_times()
        spans = [s for s in self.spans if tag is None or s.tag == tag]
        by_name: Dict[str, List[float]] = defaultdict(list)
        for s in spans:
            by_name[s.name].append(selfs[s.id])
        root_total = sum(s.duration for s in spans if s.parent is None)
        rows = []
        for name, vals in sorted(by_name.items()):
            total = sum(vals)
            rows.append(
                {
                    "name": name,
                    "count": len(vals),
                    "self_total_s": total,
                    "self_p50_ms": percentile(vals, 50.0) * 1e3,
                    "share_pct": 100.0 * total / root_total if root_total else 0.0,
                }
            )
        return rows

    def write(self, jsonl_path: Path, chrome_path: Path) -> None:
        """Write the spans as JSONL and as a chrome://tracing file."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.rid if s.rid is not None else 0,
                "args": {"id": s.id, "parent": s.parent, "bid": s.bid, "tag": s.tag},
            }
            for s in self.spans
        ]
        with open(chrome_path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def format_layer_table(rows: List[Dict[str, float]]) -> str:
    lines = [f"{'span':<28} {'count':>7} {'self s':>9} {'self p50 ms':>12} {'share':>7}"]
    for r in rows:
        lines.append(
            f"{r['name']:<28} {r['count']:>7} {r['self_total_s']:>9.3f} "
            f"{r['self_p50_ms']:>12.4f} {r['share_pct']:>6.1f}%"
        )
    return "\n".join(lines)
