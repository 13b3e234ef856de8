"""Command-line interface.

``python -m repro <command>``:

========  ==========================================================
profile   print the nine Table IV parameters of a LIBSVM file
schedule  decide (and explain) the storage format for a LIBSVM file
train     train an adaptive SVM on a LIBSVM file and report accuracy
serve     simulate an online serving session (micro-batching + runtime
          layout re-scheduling) through the sharded fleet on the
          virtual clock and report metrics
bench     run a timed benchmark suite (smsv, sell, serve, obs) and
          write its record; exit 1 when an enforced gate fails
tune      measured-time knob search (SELL chunk, sigma window, SMO
          row cache); winners persist to ``~/.cache/repro/tune.json``
          where the format builders, the cost model and SMO consult
          them
trace     run any other command with tracing on and export the span
          tree, decision audit log, and metrics
obs       observability reports (``obs report``: scheduler regret —
          predicted vs measured format rankings)
datasets  list the built-in Table V dataset clones
table7    print the regenerated Table VII
machines  list the hardware catalog (Table VII platforms + prices)
lint      run the RDL static-analysis rules over source paths
========  ==========================================================

Every command is a thin shell over the public API, so scripts can do
the same four lines in Python; the CLI exists for quick inspection of
files on disk.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.data import read_libsvm
    from repro.features import profile_from_coo

    (rows, cols, _vals, shape), _y = read_libsvm(
        args.file, n_features=args.n_features
    )
    p = profile_from_coo(rows, cols, shape, validated=True)
    print(p)
    for name, value in p.as_dict().items():
        print(f"  {name:8s} = {value}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core import LayoutScheduler, explain
    from repro.data import read_libsvm

    (rows, cols, vals, shape), _y = read_libsvm(
        args.file, n_features=args.n_features
    )
    from repro.obs import audit_dataset

    sched = LayoutScheduler(args.strategy)
    with audit_dataset(args.file):
        decision = sched.decide_from_coo(rows, cols, vals, shape)
    print(f"format   : {decision.fmt}")
    print(f"strategy : {decision.strategy}")
    print(f"reason   : {decision.reason}")
    if args.explain:
        print()
        print(explain(decision))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core import LayoutScheduler
    from repro.data import read_libsvm
    from repro.svm import AdaptiveSVC

    if args.sanitize:
        # Construction-time checks everywhere downstream, plus a
        # per-operation wrapper around the training matrix below.
        import os

        os.environ["REPRO_SANITIZE"] = "1"
    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()

    (rows, cols, vals, shape), y = read_libsvm(
        args.file, n_features=args.n_features
    )
    classes = np.unique(y)
    if classes.shape[0] != 2:
        print(
            f"error: need a binary problem, found {classes.shape[0]} "
            f"classes",
            file=sys.stderr,
        )
        return 2
    # map arbitrary binary labels to ±1
    y_pm = np.where(y == classes[1], 1.0, -1.0)
    from repro.formats import format_class

    X = format_class("CSR").from_coo(rows, cols, vals, shape)
    if args.sanitize:
        from repro.analysis import sanitize_format

        X = sanitize_format(X)
    clf = AdaptiveSVC(
        args.kernel,
        C=args.C,
        max_iter=args.max_iter,
        scheduler=LayoutScheduler(args.strategy),
        cache_mb=args.cache_mb,
        **({"gamma": args.gamma} if args.kernel in ("gaussian", "rbf") else {}),
    )
    from repro.obs import audit_dataset

    t0 = time.perf_counter()
    with audit_dataset(args.file):
        clf.fit(X, y_pm)
    elapsed = time.perf_counter() - t0
    print(f"format      : {clf.chosen_format}")
    print(f"iterations  : {clf.result_.iterations}")
    print(f"converged   : {clf.result_.converged}")
    print(f"support     : {clf.n_support}")
    print(f"train acc   : {clf.score(X, y_pm):.4f}")
    print(f"train time  : {elapsed:.2f} s")
    return 0


def _serve_inputs(args: argparse.Namespace):
    """``(models, workload, rescheduler policy)`` of a ``repro serve``
    session.

    ``--workers N`` without ``--model`` serves the multi-tenant demo.
    Otherwise the session serves ``--model FILE`` (or the demo model
    whose format flips with batch width) under ``--workload``.
    """
    from repro.serve import closed_loop, open_loop, phase_shift, query_sampler

    if args.model is None and args.workers is not None:
        from repro.serve.bench_fleet import (
            STRONG_BITWISE_FORMATS,
            fleet_models,
            tenant_workload,
        )

        policy = {"min_gain": 0.0, "candidates": STRONG_BITWISE_FORMATS}
        return (
            fleet_models(smoke=True),
            tenant_workload(smoke=True, seed=args.seed),
            policy,
        )
    if args.model:
        from pathlib import Path

        from repro.serve import ServedModel
        from repro.svm.persist import load_model

        key = Path(args.model).stem
        model = ServedModel.from_model(load_model(args.model))
        policy = {"min_gain": 0.05}
    else:
        # The synthetic demo model whose cost ranking flips with the
        # observed batch width — the phase-shift workload walks it
        # across the crossover so the session shows a runtime
        # re-schedule.  The policy keeps to the unreordered family so
        # that crossover exists (see serve.bench.CLASSIC_SERVE_FORMATS).
        from repro.serve.bench import CLASSIC_SERVE_FORMATS, flip_model

        key = "flip"
        model = flip_model(seed=args.seed)
        policy = {"min_gain": 0.0, "candidates": CLASSIC_SERVE_FORMATS}
    _r, _c, vals = model.matrix.to_coo()
    mean_nnz = max(1, round(vals.shape[0] / model.matrix.shape[0]))
    sampler = query_sampler(
        model.n_features, min(mean_nnz, model.n_features)
    )
    if args.workload == "phase-shift":
        workload = phase_shift(
            sampler,
            singles=max(1, args.requests // 4),
            bursts=max(1, args.requests // 10),
            burst_size=args.max_batch,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    elif args.workload == "closed":
        workload = closed_loop(
            args.requests,
            concurrency=args.max_batch,
            sampler=sampler,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    else:
        workload = open_loop(
            args.requests,
            args.rate,
            sampler,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    return {key: model}, workload, policy


def _cmd_serve(args: argparse.Namespace) -> int:
    """One serving session: a ``ServingFleet`` run by ``simulate_fleet``
    on the virtual clock with the default modelled service time."""
    import json

    from repro.obs import audit_dataset, get_registry, trace_enabled
    from repro.obs.collect import clear_fleet_trace, publish_fleet_trace
    from repro.serve import AdmissionController, ServingFleet, simulate_fleet

    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()
    n_workers = 1 if args.workers is None else args.workers
    if n_workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    models, workload, policy = _serve_inputs(args)
    admission = AdmissionController(
        capacity=args.capacity, shed_at=args.shed_at
    )
    traced = trace_enabled()
    if traced:
        clear_fleet_trace()
    with ServingFleet(
        models, n_workers, backend=args.backend, rescheduler=policy
    ) as fleet, audit_dataset(workload.name):
        if traced:
            fleet.enable_worker_tracing()
        report = simulate_fleet(
            fleet,
            workload,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            admission=admission,
            registry=get_registry() if traced else None,
        )
        if traced:
            # Collect before close — worker rings die with the
            # processes.  The wrapping `repro trace` exports this.
            publish_fleet_trace(fleet.merged_trace())

    # Per replica ("model@wN"): the format it ended in, and the one it
    # started in — the first flip's source, or the end format if the
    # replica never flipped.
    final = {
        f"{key}@w{w}": fmt
        for w, fmts in sorted(report.snapshot.formats.items())
        for key, fmt in sorted(fmts.items())
    }
    initial = dict(final)
    for key, w, e in reversed(report.events):
        initial[f"{key}@w{w}"] = e.from_fmt
    events = [
        {
            "replica": f"{key}@w{w}",
            "batch_seq": e.batch_seq,
            "effective_k": e.effective_k,
            "from": e.from_fmt,
            "to": e.to_fmt,
            "reason": e.reason,
        }
        for key, w, e in report.events
    ]
    snap = report.metrics.snapshot()
    if args.json:
        snap.update(
            workload=report.workload,
            workers=n_workers,
            initial_format=initial,
            final_format=final,
            events=events,
            reschedule_events=len(events),
            rebalances=len(report.rebalances),
            per_shard_served={
                str(s): c for s, c in report.per_shard_served.items()
            },
            transport={
                str(w): stats
                for w, stats in report.snapshot.transport.items()
            },
        )
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    lat = snap["latency"]
    print(
        f"fleet       : {n_workers} {args.backend} worker(s), "
        f"{len(models)} model(s)"
    )
    print(f"workload    : {report.workload} ({len(workload)} requests)")
    print(
        f"served      : {snap['served']} in {snap['batches']} batches "
        f"(mean width {snap['mean_batch']:.2f})"
    )
    print(
        f"shed        : {snap['rejected']} rejected, "
        f"{snap['expired']} expired, {snap['degraded']} degraded"
    )
    print(
        f"latency ms  : p50 {lat['p50_ms']:.3f}  p95 {lat['p95_ms']:.3f}  "
        f"p99 {lat['p99_ms']:.3f} (virtual: wait + modelled service)"
    )
    print(f"throughput  : {snap['throughput_rps']:.0f} rps (virtual time)")
    print(
        f"spmm        : {snap['ops']['spmm_calls']} sweeps over "
        f"{snap['ops']['spmm_columns']} columns"
    )
    print(
        "per shard   : "
        + "  ".join(
            f"w{s}={c}" for s, c in sorted(report.per_shard_served.items())
        )
    )
    for w, stats in sorted(report.snapshot.transport.items()):
        per_req = (
            (stats["hot_bytes_sent"] + stats["hot_bytes_received"])
            / stats["hot_requests"]
            if stats["hot_requests"]
            else 0.0
        )
        print(
            f"  w{w} transport: {stats['hot_requests']} reqs, "
            f"{per_req:.0f} hot B/req, "
            f"{stats['control_bytes_sent'] + stats['control_bytes_received']} "
            f"control B"
        )
    for event in report.rebalances:
        print(
            f"  rebalance #{event.seq}: {event.model} -> shard "
            f"{event.cold_shard} (hot shard {event.hot_shard}, "
            f"imbalance {event.imbalance:.2f}x)"
        )
    for replica, fmt in final.items():
        print(f"format      : {replica} {initial[replica]} -> {fmt}")
    print(
        f"reschedules : {len(events)} per-replica format flip(s)"
        + ("" if events else " (none warranted)")
    )
    for e in events:
        print(
            f"  {e['replica']} batch {e['batch_seq']}: {e['from']} -> "
            f"{e['to']} ({e['reason']})"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.harness import SUITES, render, run_suite, write_record

    rec = run_suite(
        args.what, quick=args.quick, repeats=args.repeats,
        seed=args.bench_seed,
    )
    out = args.out or SUITES[args.what][1]
    write_record(rec, out)
    print(render(rec))
    print(f"report      : {out}")
    return 0 if rec["pass"] else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    """Search the knob families and persist the winners.

    With ``--dataset`` the search runs on that LIBSVM file; otherwise
    it covers the synthetic report suite (one profile bucket per
    dataset family).  Winners land in the persisted tuning cache
    (``REPRO_TUNE_CACHE`` or ``~/.cache/repro/tune.json``), keyed on
    each dataset's full profile, where the SELL and sorted-layout
    builders and the cost model (``sell_chunk``, ``sigma``) and the
    SMO row cache (``row_cache_mb``) consult them on every later run.
    """
    import json

    from repro.tune.cache import tune_cache
    from repro.tune.search import tune_datasets
    from repro.tune.space import KNOB_FAMILIES, KNOBS

    if args.families:
        families = []
        for f in args.families.split(","):
            f = f.strip()
            if f not in KNOBS:
                print(
                    f"error: unknown knob family {f!r}; expected one "
                    f"of {', '.join(KNOB_FAMILIES)}",
                    file=sys.stderr,
                )
                return 2
            families.append(f)
    else:
        families = list(KNOB_FAMILIES)

    if args.dataset:
        from repro.data import read_libsvm

        (rows, cols, vals, shape), _y = read_libsvm(
            args.dataset, n_features=args.n_features
        )
        datasets = [(args.dataset, rows, cols, vals, shape)]
    else:
        from repro.obs.report import REPORT_DATASETS

        datasets = [
            (name, *build(1024, 512, args.seed))
            for name, build in REPORT_DATASETS
        ]

    cache = tune_cache()
    tuned = tune_datasets(
        datasets, families, cache=cache, seed=args.seed, budget=args.budget
    )
    if args.json:
        for d in tuned.values():
            d["families"] = {
                f: r.as_dict() for f, r in d["families"].items()
            }
        payload = {"cache": str(cache.path), "datasets": tuned}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, d in tuned.items():
        fams = "  ".join(
            f"{f} {dict(r.best)}"
            + (f" x{r.speedup:.2f}" if r.improved else " (=default)")
            for f, r in d["families"].items()
        )
        print(f"{name:12s}: {fams}")
    print(f"cache       : {cache.path} ({len(cache)} entries)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if not args.cmd or args.cmd[0] == "trace":
        print(
            "error: usage is `repro trace [--trace-out F ...] "
            "<command> [args...]`",
            file=sys.stderr,
        )
        return 2
    misplaced = {
        "--trace-out", "--chrome", "--audit-out", "--metrics-out"
    } & set(args.cmd)
    if misplaced:
        # argparse.REMAINDER swallows everything after the wrapped
        # command's name, so export options are only seen before it.
        print(
            f"error: {', '.join(sorted(misplaced))} must come before "
            f"the wrapped command: repro trace [options] "
            f"{args.cmd[0]} ...",
            file=sys.stderr,
        )
        return 2
    from repro.obs import audit_log, enable_tracing, get_registry, get_tracer
    from repro.obs.collect import (
        clear_fleet_trace,
        last_fleet_trace,
        mount_tracer_health,
    )
    from repro.obs.export import (
        write_audit_jsonl,
        write_chrome_trace,
        write_merged_chrome_trace,
        write_prometheus,
        write_spans_jsonl,
    )

    enable_tracing()
    tracer = get_tracer()
    clear_fleet_trace()
    rc = main(args.cmd)
    spans = tracer.spans()
    # A fleet command (serve --workers N) publishes its merged
    # multi-process timeline on the way out; prefer it — it contains
    # the door's spans plus every worker's, already re-parented.
    merged = last_fleet_trace()
    # Exports and the summary go to stderr-adjacent paths so a wrapped
    # `--json` command's stdout stays machine-parseable.
    if args.trace_out:
        if merged is not None:
            write_spans_jsonl(
                merged.spans,
                args.trace_out,
                dropped={
                    str(lane): n
                    for lane, n in sorted(merged.dropped.items())
                },
            )
        else:
            write_spans_jsonl(spans, args.trace_out, dropped=tracer.dropped)
    if args.chrome:
        if merged is not None:
            write_merged_chrome_trace(merged, args.chrome)
        else:
            write_chrome_trace(spans, args.chrome)
    if args.audit_out:
        write_audit_jsonl(audit_log().records(), args.audit_out)
    if args.metrics_out:
        mount_tracer_health(get_registry())
        write_prometheus(get_registry(), args.metrics_out)
    outs = [
        f"{label} -> {path}"
        for label, path in (
            ("spans", args.trace_out),
            ("chrome", args.chrome),
            ("audit", args.audit_out),
            ("metrics", args.metrics_out),
        )
        if path
    ]
    if merged is not None:
        lanes = merged.worker_lanes()
        print(
            f"trace       : {len(merged.spans)} spans across "
            f"{len(lanes) + 1} processes (door + workers {lanes}), "
            f"{len(audit_log().records())} audited decisions"
            + (f" ({'; '.join(outs)})" if outs else ""),
            file=sys.stderr,
        )
    else:
        print(
            f"trace       : {len(spans)} spans, "
            f"{len(audit_log().records())} audited decisions"
            + (f" ({'; '.join(outs)})" if outs else ""),
            file=sys.stderr,
        )
    return rc


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import (
        render_report,
        report_payload,
        run_report,
    )

    records = run_report(
        quick=args.quick,
        repeats=args.repeats,
        seed=args.seed,
        batch_k=args.batch_k,
    )
    if args.json:
        print(json.dumps(report_payload(records), indent=2, sort_keys=True))
    else:
        print(render_report(records))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Run the synthetic fleet demo under declarative SLOs."""
    import json

    from repro.obs.flight import FlightRecorder
    from repro.obs.slo import SLOMonitor, default_slos, render_slo
    from repro.serve.bench_fleet import fleet_models, tenant_workload
    from repro.serve.fleet import ServingFleet, simulate_fleet

    flight = FlightRecorder(enabled=True)
    monitor = SLOMonitor(
        default_slos(
            latency_ms=args.latency_ms,
            saturation_ms=args.saturation_ms,
        ),
        flight=flight,
        dump_path=args.dump,
    )
    with ServingFleet(
        fleet_models(smoke=True),
        args.workers,
        backend="local",
    ) as fleet:
        report = simulate_fleet(
            fleet,
            tenant_workload(smoke=True, seed=args.seed),
            slo=monitor,
        )
    if args.json:
        payload = monitor.payload()
        payload["workload"] = report.workload
        payload["served"] = report.metrics.served
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"fleet       : {args.workers} local worker(s), "
        f"{report.metrics.served} served"
    )
    print(render_slo(monitor))
    if args.dump and monitor.breaches:
        print(f"flight dump : {args.dump}")
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    """Render a flight-recorder dump file."""
    import json

    from repro.obs.flight import read_flight_dump, render_flight

    try:
        dump = read_flight_dump(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(dump, indent=2, sort_keys=True))
    else:
        print(render_flight(dump))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        explain_rule,
        lint_paths,
        render_json,
        render_text,
    )

    if args.explain:
        try:
            print(explain_rule(args.explain))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    paths = args.paths or ["src"]
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        findings = lint_paths(paths, select=select, ignore=ignore)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.json else render_text
    print(render(findings))
    return 1 if findings else 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.data import DATASET_SPECS

    header = (
        f"{'name':14s} {'application':12s} {'M':>9s} {'N':>7s} "
        f"{'density':>8s} {'scaled':>7s}"
    )
    print(header)
    for name, spec in DATASET_SPECS.items():
        p = spec.paper
        print(
            f"{name:14s} {spec.application:12s} {p.m:9d} {p.n:7d} "
            f"{p.density:8.3f} {'yes' if spec.scaled else 'no':>7s}"
        )
    return 0


def _cmd_table7(_args: argparse.Namespace) -> int:
    from repro.tuning import reproduce_table7
    from repro.tuning.table7 import format_rows

    print(format_rows(reproduce_table7()))
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    from repro.hardware import MACHINES

    print(
        f"{'name':10s} {'cores':>6s} {'peak Gf/s':>10s} {'BW GB/s':>8s} "
        f"{'price $':>9s}  description"
    )
    for name, m in MACHINES.items():
        print(
            f"{name:10s} {m.cores:6d} {m.peak_gflops:10.0f} "
            f"{m.bandwidth_gbs:8.0f} {m.price_usd:9,.0f}  {m.long_name}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Runtime data layout scheduling for ML datasets "
        "(You & Demmel, ICPP 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="nine-parameter profile of a LIBSVM file")
    p.add_argument("file")
    p.add_argument("--n-features", type=int, default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("schedule", help="decide the storage format")
    p.add_argument("file")
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument(
        "--strategy",
        choices=("rules", "cost", "probe", "hybrid"),
        default="hybrid",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the full decision rationale (profile, rule trace, "
        "cost-model ranking)",
    )
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("train", help="train an adaptive SVM")
    p.add_argument("file")
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument("--kernel", default="linear")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument(
        "--strategy",
        choices=("rules", "cost", "probe", "hybrid"),
        default="hybrid",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="validate format invariants at every construction and "
        "operation (sets REPRO_SANITIZE=1)",
    )
    p.add_argument(
        "--cache-mb",
        type=float,
        default=None,
        metavar="MB",
        help="kernel-row cache budget in megabytes (LIBSVM -m "
        "semantics); default: a fixed row count",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing for the run (same as REPRO_TRACE=1; "
        "use `repro trace train ...` to also export the spans)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "serve",
        help="simulate an online serving session on the virtual clock",
    )
    p.add_argument(
        "--model",
        default=None,
        metavar="FILE",
        help="saved model (.npz from SVC.save / MulticlassSVC.save); "
        "default: a synthetic demo model whose format flips with "
        "batch width",
    )
    p.add_argument(
        "--workload",
        choices=("open", "closed", "phase-shift"),
        default="phase-shift",
        help="arrival pattern (default: phase-shift, which drifts the "
        "batch width to trigger a runtime re-schedule)",
    )
    p.add_argument("--requests", type=int, default=256)
    p.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="open-loop arrival rate in requests/s (virtual time)",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--capacity", type=int, default=64)
    p.add_argument("--shed-at", type=float, default=0.75)
    p.add_argument("--deadline-ms", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fleet size (default 1; zero-copy shared-memory models, "
        "per-replica re-scheduling); without --model, --workers "
        "serves the multi-tenant demo instead of the flip model",
    )
    p.add_argument(
        "--backend",
        choices=("process", "local"),
        default="process",
        help="fleet worker backend (local runs the identical wire "
        "protocol in-process)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable metrics snapshot",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing for the session (same as "
        "REPRO_TRACE=1; use `repro trace serve ...` to also export)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "bench",
        help="run a timed benchmark suite and write its JSON record",
    )
    from repro.perf.harness import SUITES

    p.add_argument(
        "what",
        choices=tuple(SUITES),
        help="which suite to run (smsv: blocked SpMM + fused dual-row; "
        "sell: scheduled SELL-C-sigma vs fixed formats; serve: micro-"
        "batched serving throughput; obs: disabled-mode "
        "instrumentation overhead)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="one small shape, fewer repeats (CI smoke mode)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats/samples per measurement (default: suite-"
        "specific)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<suite>.json)",
    )
    p.add_argument(
        "--seed",
        dest="bench_seed",
        type=int,
        default=0,
        help="generator seed offset (default 0 — the pinned seeds the "
        "committed records use)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "tune",
        help="measured-time knob search; winners persist to the "
        "tuning cache the format builders, cost model and SMO consult",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=256,
        help="timed-repeat budget per dataset (default 256)",
    )
    p.add_argument(
        "--dataset",
        default=None,
        metavar="FILE",
        help="tune on this LIBSVM file instead of the synthetic "
        "report suite",
    )
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument(
        "--families",
        default=None,
        metavar="F1,F2",
        help="comma-separated knob families (default: all)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable results",
    )
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "trace",
        help="run another repro command with tracing on, then export "
        "the span tree, decision audit log, and metrics",
    )
    p.add_argument(
        "cmd",
        nargs=argparse.REMAINDER,
        metavar="command",
        help="the command to run traced, with its own arguments "
        "(e.g. `repro trace train data.libsvm --max-iter 100`)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the spans as JSON-lines",
    )
    p.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing / Perfetto JSON trace",
    )
    p.add_argument(
        "--audit-out",
        default=None,
        metavar="FILE",
        help="write the scheduler decision audit log as JSON-lines",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry in Prometheus text format",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "obs",
        help="observability reports over the decision audit pipeline",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pr = obs_sub.add_parser(
        "report",
        help="scheduler regret: the cost model's predicted format "
        "ranking vs the autotuner's measured one, per dataset",
    )
    pr.add_argument(
        "--quick",
        action="store_true",
        help="small shapes (CI smoke mode)",
    )
    pr.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="autotuner probe repeats per format (default 3)",
    )
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument(
        "--batch-k",
        type=int,
        default=1,
        help="batch width the rankings are priced at (default 1)",
    )
    pr.add_argument(
        "--json",
        action="store_true",
        help="machine-readable payload (rows + full decision records)",
    )
    pr.set_defaults(func=_cmd_obs_report)
    ps = obs_sub.add_parser(
        "slo",
        help="serve the synthetic fleet demo under the stock SLOs "
        "and report burn rates / breaches",
    )
    ps.add_argument(
        "--workers",
        type=int,
        default=2,
        help="fleet width for the demo (default 2, local backend)",
    )
    ps.add_argument(
        "--latency-ms",
        type=float,
        default=50.0,
        help="latency_p99 objective threshold (default 50 ms; set "
        "low to force a breach)",
    )
    ps.add_argument(
        "--saturation-ms",
        type=float,
        default=20.0,
        help="shard_saturation backlog threshold (default 20 ms)",
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--dump",
        default=None,
        metavar="FILE",
        help="write a flight dump here on the first breach",
    )
    ps.add_argument(
        "--json",
        action="store_true",
        help="machine-readable statuses + breach history",
    )
    ps.set_defaults(func=_cmd_obs_slo)
    pd = obs_sub.add_parser(
        "dump",
        help="render a flight-recorder dump file (crash, SIGUSR1, "
        "or SLO-breach output)",
    )
    pd.add_argument("file", help="path to a flight-*.jsonl dump")
    pd.add_argument(
        "--json",
        action="store_true",
        help="machine-readable header + events + spans + metrics",
    )
    pd.set_defaults(func=_cmd_obs_dump)

    p = sub.add_parser(
        "lint",
        help="run the RDL static-analysis rules",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output for CI gating",
    )
    p.add_argument(
        "--explain",
        metavar="RDLxxx",
        help="print the rationale for one rule and exit",
    )
    p.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("datasets", help="list Table V dataset clones")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("table7", help="print the regenerated Table VII")
    p.set_defaults(func=_cmd_table7)

    p = sub.add_parser("machines", help="list the hardware catalog")
    p.set_defaults(func=_cmd_machines)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
