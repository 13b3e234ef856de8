# Developer entry points.  CI runs the same three targets as separate
# jobs (.github/workflows/ci.yml) so lint and test regressions are
# distinguishable at a glance.

PYTHON ?= python
PYTHONPATH := src

.PHONY: lint test test-sanitize test-trace test-race paper-shapes bench bench-smoke obs-report-smoke tune wall-bench-smoke check

## Static analysis: every RDL rule (the concurrency family RDL009-RDL012
## included) over the library, its tests, the paper-shape benchmarks
## and the examples, JSON mode, non-zero exit on any finding.  See
## docs/analysis.md.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro lint --json src tests benchmarks examples

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
	REPRO_RACE=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q tests/serve tests/parallel tests/obs tests/svm tests/analysis

## The paper's shape assertions (Tables II-VII, Figs. 1-7) in
## benchmarks/, with pytest-benchmark's timing loop off; CI's
## paper-shapes job.
paper-shapes:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q --benchmark-disable

## One timed suite through the one harness (src/repro/perf/harness.py):
## `make bench SUITE=sell` writes BENCH_sell.json; QUICK=1 for the
## small smoke shapes.  Suites: smsv, sell, serve, obs.  Exit 1 exactly
## when an enforced gate fails (sell's modelled speedup, obs's three
## disabled-path overhead quotients); wall-clock ratios that a shared
## host cannot hold are recorded with `enforced: false`.
SUITE ?= smsv
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench $(SUITE) $(if $(QUICK),--quick)

## Every suite in the harness's table in quick mode, as CI's
## bench-smoke job runs them; fails when any suite's enforced gate does.
## Records go to build/bench/, so the committed BENCH_*.json stay put.
bench-smoke:
	mkdir -p build/bench; \
	rc=0; \
	for suite in $$(PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "from repro.perf.harness import SUITES; print(*SUITES)"); do \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench $$suite --quick --out build/bench/BENCH_$$suite.json || rc=1; \
	done; \
	exit $$rc

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

## Wall-clock benchmark smoke (BENCHMARK.json's command): the bench
## package's own tests, then every workload for a fixed 2 s with all
## output checks on — dense K/f recomputation per fit, traced alpha
## bitwise equal to untraced, served answers equal to replay_unbatched.
## Non-zero exit when any check fails; the timings are not gated.
wall-bench-smoke:
	$(PYTHON) -m pytest bench/tests -q
	$(PYTHON) -m bench run --smoke

## Everything CI gates on.
check: lint test test-sanitize test-trace test-race paper-shapes obs-report-smoke bench-smoke wall-bench-smoke
