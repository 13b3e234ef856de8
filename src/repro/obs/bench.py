"""The disabled-mode overhead gate (``repro bench obs``).

The tracer's contract is that instrumentation left permanently in hot
paths is *free when disabled*.  Structurally that means a disabled
tracer hands out the process no-op singleton and records nothing, a
disabled race sanitizer hands out a plain ``threading.Lock`` and
``track`` is the identity, and a disabled flight ring retains nothing;
those checks cannot flake, so they are tests
(``tests/obs/test_trace.py``, ``tests/analysis/test_race_sanitizer.py``,
``tests/obs/test_flight.py``).

This suite measures what is left: the cost of each disabled call site.
The disabled span's per-entry cost is measured directly in a tight
loop (nanoseconds, stable even on a loaded box), the bare SMSV
kernel's per-call cost is measured the same way, and each gate is
their quotient: one disabled span per kernel call must cost under the
threshold (2 %) of the call.  Gating on the quotient of two *directly
measured* costs — instead of the difference of two nearly-equal
end-to-end timings — is what keeps a 2 % gate stable on a single-core
CI container where run-to-run kernel jitter alone exceeds 5 %.  The
end-to-end ratio is still recorded, as information.  The race
sanitizer's ``enabled`` guard (the branch that stays in the parallel
kernel path) and a disabled flight-recorder ``record()`` call are
gated the same way.

The record (schema in :mod:`repro.perf.harness`) lands in
``BENCH_obs.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis.race import RaceSanitizer
from repro.data.synthetic import uniform_rows_matrix
from repro.formats.csr import CSRMatrix
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer
from repro.perf.harness import Gate, record
from repro.perf.timers import benchmark

#: Disabled-mode overhead gate: a disabled call site's cost as a
#: fraction of one SMSV kernel call (0.02 = the 2 % budget).
OVERHEAD_THRESHOLD = 0.02


def run(
    *, quick: bool = False, repeats: Optional[int] = None, seed: int = 0
) -> Dict[str, Any]:
    """Measure disabled-instrumentation overhead on the SMSV hot path.

    ``repeats`` is the number of timed rounds per loop (default 9).
    Uses private disabled :class:`Tracer`, :class:`RaceSanitizer` and
    :class:`FlightRecorder` instances so the result is independent of
    ``REPRO_TRACE``/``REPRO_RACE`` in the environment — the question
    is what *disabled* instrumentation costs, wherever the global
    switches happen to be.
    """
    rounds = 9 if repeats is None else repeats
    calls = 64
    # quick shrinks only the matrix, never the round count — with a
    # smaller per-round time the gate needs MORE samples, not fewer,
    # to keep timer jitter out of the ratio.
    m, n, row_nnz = (1024, 256, 16) if quick else (4096, 512, 32)

    rows, cols, values, shape = uniform_rows_matrix(
        m, n, row_nnz, seed=seed
    )
    matrix = CSRMatrix.from_coo(rows, cols, values, shape)
    v = matrix.row(0)  # the SMO access pattern: a row as the query

    tracer = Tracer(enabled=False)
    race = RaceSanitizer(enabled=False)
    flight = FlightRecorder(enabled=False)

    # The gated quantity: what one disabled span entry/exit costs,
    # measured in a tight loop where the cost dominates the loop
    # overhead it is charged with (a conservative over-estimate).
    span_iters = 20_000 if quick else 50_000

    def span_only() -> None:
        for _ in range(span_iters):
            with tracer.span("smo.iteration"):
                pass

    # What the disabled race sanitizer leaves in the parallel kernel
    # path: one `.enabled` branch per dispatch (see
    # repro.parallel.kernels._run_blocks).
    def race_guard_only() -> None:
        for _ in range(span_iters):
            if race.enabled:
                pass  # pragma: no cover - disabled by construction

    # What a disabled flight-recorder call site costs: record() itself
    # is the guard (first line returns), so the measured unit is one
    # full call into a disabled ring.
    def flight_only() -> None:
        for _ in range(span_iters):
            flight.record("smo.iteration")

    def bare() -> None:
        for _ in range(calls):
            matrix.smsv(v)

    def instrumented() -> None:
        for _ in range(calls):
            with tracer.span("smo.iteration"):
                matrix.smsv(v)

    t = {
        fn.__name__: benchmark(fn, repeats=rounds, warmup=1)
        for fn in (span_only, race_guard_only, flight_only, bare,
                   instrumented)
    }
    # Minimum, not median: scheduler noise only ever ADDS time, so the
    # fastest round is the cleanest estimate of each true cost.
    smsv_cost = t["bare"].best / calls
    costs = {
        "span": t["span_only"].best / span_iters,
        "race_guard": t["race_guard_only"].best / span_iters,
        "flight": t["flight_only"].best / span_iters,
    }
    measured: Dict[str, Any] = {"smsv_cost_s": smsv_cost}
    gates = []
    for name, cost in costs.items():
        fraction = cost / smsv_cost if smsv_cost > 0 else 1.0
        measured[f"{name}_cost_s"] = cost
        measured[f"{name}_overhead_fraction"] = fraction
        gates.append(
            Gate(f"{name}_overhead_fraction", fraction, "<",
                 OVERHEAD_THRESHOLD)
        )
    measured.update(
        bare_median_s=t["bare"].median,
        instrumented_median_s=t["instrumented"].median,
        insitu_ratio=(
            t["instrumented"].best / t["bare"].best
            if t["bare"].best > 0 else 1.0
        ),
    )
    return record(
        "obs", quick=quick, seed=seed, measured=measured, modelled={},
        gates=gates,
    )
