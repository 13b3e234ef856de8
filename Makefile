# Developer entry points.  CI runs the same three targets as separate
# jobs (.github/workflows/ci.yml) so lint and test regressions are
# distinguishable at a glance.

PYTHON ?= python
PYTHONPATH := src

.PHONY: lint race test test-sanitize test-trace test-race bench bench-sell serve-bench bench-obs bench-obs-fleet bench-fleet obs-report-smoke tune tune-smoke wall-bench-smoke check

## Static analysis: the twelve RDL rules over the whole tree, JSON
## mode, non-zero exit on any finding.  See docs/analysis.md.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis src tests

## Static race report: only the concurrency rules (RDL009-RDL012) over
## the shipped sources — lock discipline, executor closure escapes,
## lock ordering, double-checked init.
race:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro race --json src

## Tier-1 test suite.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Tier-1 suite with every format constructor validating its own
## structural invariants (the runtime sanitizer's blanket switch).
test-sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Tier-1 suite with the global tracer enabled: observation must never
## change behaviour (docs/observability.md).
test-trace:
	REPRO_TRACE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## The threaded subsystems under the runtime lockset sanitizer: every
## tracked shared field touched by two threads must be covered by a
## common lock, asserted per test (tests/conftest.py).
test-race:
	REPRO_RACE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q tests/serve tests/parallel tests/obs tests/analysis

## SpMM benchmark suite (writes BENCH_smsv.json); `make bench QUICK=1`
## for the CI smoke variant.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench smsv $(if $(QUICK),--quick)

## SELL-C-sigma benchmark suite (writes BENCH_sell.json): scheduled
## reordered layouts vs fixed formats, the (sigma, C) trajectory and
## the bitwise SMO gate.  `make bench-sell QUICK=1` for the CI smoke
## variant.
bench-sell:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench sell $(if $(QUICK),--quick)

## Serving benchmark suite (writes BENCH_serve.json): batched-vs-
## unbatched throughput plus the mid-stream re-schedule demo.
## `make serve-bench QUICK=1` for the CI smoke variant.
serve-bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench serve $(if $(QUICK),--smoke)

## Tracing-overhead gate (writes BENCH_obs.json): disabled-mode span
## cost must stay under 2% of one SMSV call, and the no-op singleton
## checks are deterministic.  `make bench-obs QUICK=1` for the CI
## smoke variant (same gate, smaller matrix).
bench-obs:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench obs $(if $(QUICK),--quick)

## Fleet observability gate (writes BENCH_obs.json): traced answers
## bitwise vs untraced, merged timeline covers every worker lane with
## valid cross-process parents, SLO breach + flight dump fire
## deterministically.  `make bench-obs-fleet QUICK=1` for the CI
## smoke variant.
bench-obs-fleet:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench obs --fleet $(if $(QUICK),--smoke)

## Fleet benchmark suite (writes BENCH_fleet.json): multi-worker
## virtual-throughput scaling, zero-copy transport accounting and the
## overload admission bound — all deterministic, so the suite gates.
## `make bench-fleet QUICK=1` for the CI smoke variant.
bench-fleet:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench fleet $(if $(QUICK),--smoke)

## Decision-audit smoke: the five-dataset regret report (predicted vs
## measured per-format costs, one audit record each) as JSON.  Non-zero
## exit when the audit-record -> regret pipeline breaks.
obs-report-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro obs report --quick --json

## Measured-time knob search over the report suite; winners persist
## to the tuning cache (REPRO_TUNE_CACHE or ~/.cache/repro/tune.json)
## where the scheduler and kernels consult them.
tune:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro tune

## Tuning gate (writes BENCH_tune.json): tuned knobs never slower than
## the analytic defaults on their own measurements, warm-cache format
## decisions deterministic and served from the persisted cache, cold
## buckets falling back to the analytic model unchanged.  The cache is
## pinned to a temp file so the run never touches ~/.cache.
tune-smoke:
	REPRO_TUNE_CACHE=$$(mktemp -d)/tune.json PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench tune --smoke

## Wall-clock benchmark smoke (BENCHMARK.json's command): the bench
## package's own tests, then every workload for a fixed 2 s with all
## output checks on — dense K/f recomputation per fit, traced alpha
## bitwise equal to untraced, served answers equal to replay_unbatched.
## Non-zero exit when any check fails; the timings are not gated.
wall-bench-smoke:
	$(PYTHON) -m pytest bench/tests -q
	$(PYTHON) -m bench run --smoke

## Everything CI gates on.
check: lint race test test-sanitize test-trace test-race
