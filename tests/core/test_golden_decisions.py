"""Golden layout decisions: the scheduler's picks, pinned.

Any change to how a profile becomes a format must leave these
decisions unchanged: the ``rules`` and ``cost`` strategies on the five
``repro obs report`` datasets and the six Table V clones the training
benchmark fits, at ``batch_k`` 1, 2 and 8, under each candidate set
the library uses (the default paper five, the analytically priced
formats, the serving family and its strict-bitwise subset).  The
mid-stream re-schedule of ``repro bench serve``'s phase-shift demo is
pinned alongside, event for event.

Both strategies are deterministic (no timing enters them) and the
suite's tuning cache is an empty per-session file, so every entry here
is exact on any machine.
"""

import functools

import pytest

from repro.core.cost_model import ANALYTIC_FORMATS
from repro.core.scheduler import LayoutScheduler
from repro.data import load_dataset
from repro.obs.report import REPORT_DATASETS
from repro.serve.bench import run_reschedule_demo
from repro.serve.bench_fleet import STRONG_BITWISE_FORMATS
from repro.serve.engine import EXACT_SERVE_FORMATS

BATCH_KS = (1, 2, 8)

CANDIDATE_SETS = {
    "default": None,
    "analytic": ANALYTIC_FORMATS,
    "serve": EXACT_SERVE_FORMATS,
    "bitwise": STRONG_BITWISE_FORMATS,
}

#: ``(dataset, strategy, candidate set) -> fmt at BATCH_KS``.
GOLDEN = {
    ("uniform", "rules", "default"): ("ELL", "ELL", "ELL"),
    ("uniform", "cost", "default"): ("ELL", "ELL", "ELL"),
    ("uniform", "cost", "analytic"): ("ELL", "ELL", "ELL"),
    ("uniform", "cost", "serve"): ("ELL", "ELL", "ELL"),
    ("uniform", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
    ("bimodal", "rules", "default"): ("CSR", "CSR", "CSR"),
    ("bimodal", "cost", "default"): ("ELL", "COO", "COO"),
    ("bimodal", "cost", "analytic"): ("RSELL", "RSELL", "RSELL"),
    ("bimodal", "cost", "serve"): ("RSELL", "RSELL", "RSELL"),
    ("bimodal", "cost", "bitwise"): ("RSELL", "RSELL", "RSELL"),
    ("powerlaw", "rules", "default"): ("CSR", "CSR", "CSR"),
    ("powerlaw", "cost", "default"): ("COO", "COO", "COO"),
    ("powerlaw", "cost", "analytic"): ("COO", "COO", "COO"),
    ("powerlaw", "cost", "serve"): ("COO", "COO", "COO"),
    ("powerlaw", "cost", "bitwise"): ("RCSR", "RCSR", "RCSR"),
    ("banded", "rules", "default"): ("DIA", "DIA", "DIA"),
    ("banded", "cost", "default"): ("DIA", "DIA", "DIA"),
    ("banded", "cost", "analytic"): ("DIA", "DIA", "DIA"),
    ("banded", "cost", "serve"): ("DIA", "DIA", "DIA"),
    ("banded", "cost", "bitwise"): ("RSELL", "RSELL", "RSELL"),
    ("dense", "rules", "default"): ("DEN", "DEN", "DEN"),
    ("dense", "cost", "default"): ("DEN", "DEN", "DEN"),
    ("dense", "cost", "analytic"): ("DEN", "DEN", "DEN"),
    ("dense", "cost", "serve"): ("ELL", "ELL", "ELL"),
    ("dense", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
    ("adult", "rules", "default"): ("ELL", "ELL", "ELL"),
    ("adult", "cost", "default"): ("ELL", "ELL", "ELL"),
    ("adult", "cost", "analytic"): ("ELL", "ELL", "ELL"),
    ("adult", "cost", "serve"): ("ELL", "ELL", "ELL"),
    ("adult", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
    ("aloi", "rules", "default"): ("CSR", "CSR", "CSR"),
    ("aloi", "cost", "default"): ("CSR", "COO", "COO"),
    ("aloi", "cost", "analytic"): ("RSELL", "RSELL", "RSELL"),
    ("aloi", "cost", "serve"): ("RSELL", "RSELL", "RSELL"),
    ("aloi", "cost", "bitwise"): ("RSELL", "RSELL", "RSELL"),
    ("mnist", "rules", "default"): ("COO", "COO", "COO"),
    ("mnist", "cost", "default"): ("COO", "COO", "COO"),
    ("mnist", "cost", "analytic"): ("RSELL", "RSELL", "RSELL"),
    ("mnist", "cost", "serve"): ("RSELL", "RSELL", "RSELL"),
    ("mnist", "cost", "bitwise"): ("RSELL", "RSELL", "RSELL"),
    ("connect-4", "rules", "default"): ("ELL", "ELL", "ELL"),
    ("connect-4", "cost", "default"): ("ELL", "ELL", "ELL"),
    ("connect-4", "cost", "analytic"): ("ELL", "ELL", "ELL"),
    ("connect-4", "cost", "serve"): ("ELL", "ELL", "ELL"),
    ("connect-4", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
    ("trefethen", "rules", "default"): ("DIA", "DIA", "DIA"),
    ("trefethen", "cost", "default"): ("DIA", "DIA", "DIA"),
    ("trefethen", "cost", "analytic"): ("DIA", "DIA", "DIA"),
    ("trefethen", "cost", "serve"): ("DIA", "DIA", "DIA"),
    ("trefethen", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
    ("gisette", "rules", "default"): ("DEN", "DEN", "DEN"),
    ("gisette", "cost", "default"): ("DEN", "DEN", "DEN"),
    ("gisette", "cost", "analytic"): ("DEN", "DEN", "DEN"),
    ("gisette", "cost", "serve"): ("ELL", "ELL", "ELL"),
    ("gisette", "cost", "bitwise"): ("SELL", "SELL", "SELL"),
}


@functools.lru_cache(maxsize=None)
def _triples(name):
    for report_name, build in REPORT_DATASETS:
        if report_name == name:
            return build(1024, 512, 0)
    ds = load_dataset(name, seed=0)
    return ds.rows, ds.cols, ds.values, ds.shape


@pytest.mark.parametrize(
    "name,strategy,family", sorted(GOLDEN), ids="-".join
)
def test_decision_is_golden(name, strategy, family):
    rows, cols, values, shape = _triples(name)
    picks = tuple(
        LayoutScheduler(
            strategy, batch_k=k, candidates=CANDIDATE_SETS[family]
        )
        .decide_from_coo(rows, cols, values, shape)
        .fmt
        for k in BATCH_KS
    )
    assert picks == GOLDEN[name, strategy, family]


def test_reschedule_demo_events_are_golden():
    demo = run_reschedule_demo(smoke=True)
    assert (demo["initial_format"], demo["final_format"]) == ("ELL", "COO")
    assert demo["events"] == [
        {
            "batch_seq": 32,
            "effective_k": 6,
            "from": "ELL",
            "to": "COO",
            "reason": (
                "effective batch_k=6: model cost 3.15e+04 (COO) vs "
                "3.23e+04 (ELL)"
            ),
        }
    ]
    assert demo["labels_bitwise_identical"]
    assert demo["decisions_bitwise_identical"]
