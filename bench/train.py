"""``train-paper``: the paper's own experiment, timed on the wall clock.

A closed loop of training jobs.  One job fits six Table V clones in
sequence, each with a fresh ``AdaptiveSVC`` whose hybrid scheduler picks
the layout (ELL, CSR, DEN or DIA depending on the data) before SMO runs.
The job time therefore includes deciding and converting, as the paper's
speedups do.  The serving layers stay idle.

The inputs are LIBSVM files written at preparation; set-up is reading
them back and building CSR, the way a user's training run starts.  It
is timed before every job; ``setup_s`` is the median.

The traced variant replaces ``AdaptiveSVC.fit`` by its three public
steps, ``LayoutScheduler.decide`` -> ``formats.convert`` ->
``SVC.fit(counter=OpCounter())``, timing each from outside.  Traced and
untraced jobs alternate so the tracing overhead is measured on the same
machine state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench import host
from bench.stats import median
from bench.trace import SpanRecorder

clock = time.perf_counter

DATASETS = ("adult", "aloi", "mnist", "connect-4", "trefethen", "gisette")
LABEL_NOISE = 0.05
C = 1.0
TOL = 1e-3
#: Jobs timed at least, whatever ``--seconds`` says.
MIN_JOBS = 3
SMOKE_ROWS = 160

#: Per-layer metrics this workload measures (traced run); every other
#: per-layer metric belongs to an idle layer here and reads 0.
LAYERS = (
    "cpu_us_per_op", "data.read_libsvm_s", "formats.from_coo_s", "core.decide_s",
    "formats.convert_s", "svm.fit_s",
    *(f"fit_s.{name}" for name in DATASETS),
    "svm.iterations", "svm.kernel_rows_computed", "svm.row_cache_hit_pct",
    "formats.flops", "formats.bytes_computed", "formats.spmm_calls",
    "formats.spmm_columns", "formats.gbps_computed", "trace.overhead_pct",
)


@dataclass
class Fit:
    dataset: str
    fmt: str
    result: Any
    traced: bool


def gamma_for(n_features: int) -> float:
    return 0.5 / np.sqrt(n_features)


def prepare(seed: int, smoke: bool, workdir: Path) -> List[Tuple[str, Path, int]]:
    """Write each dataset clone as a LIBSVM file; returns
    ``(name, path, n_features)``."""
    from repro.data import load_dataset, write_libsvm

    files = []
    for name in DATASETS:
        ds = load_dataset(
            name, seed=seed, label_noise=LABEL_NOISE,
            m_override=SMOKE_ROWS if smoke else None,
        )
        path = workdir / f"{name}.libsvm"
        write_libsvm(path, (ds.rows, ds.cols, ds.values, ds.shape), ds.y)
        files.append((name, path, ds.shape[1]))
    return files


def setup(files, rec: Optional[SpanRecorder] = None):
    """Read every file and build CSR.  Returns the data and the
    ``(read_libsvm, from_coo)`` seconds summed over the files."""
    from repro.data import read_libsvm
    from repro.formats import CSRMatrix

    data = []
    steps = []
    t_root = clock()
    for name, path, n_features in files:
        t0 = clock()
        (rows, cols, values, shape), y = read_libsvm(path, n_features=n_features)
        t1 = clock()
        X = CSRMatrix.from_coo(rows, cols, values, shape)
        steps.append((t0, t1, clock()))
        data.append((name, X, y))
    if rec is not None:
        root = rec.add("setup", t_root, clock())
        for k, (t0, t1, t2) in enumerate(steps):
            rec.add("data.read_libsvm", t0, t1, parent=root, rid=k)
            rec.add("formats.from_coo", t1, t2, parent=root, rid=k)
    read_s = sum(t1 - t0 for t0, t1, _ in steps)
    coo_s = sum(t2 - t1 for _, t1, t2 in steps)
    return data, read_s, coo_s


def _svc(n_features: int, adaptive: bool):
    from repro.core import LayoutScheduler
    from repro.svm import SVC, AdaptiveSVC

    if adaptive:
        return AdaptiveSVC(
            "gaussian", C=C, tol=TOL, gamma=gamma_for(n_features),
            scheduler=LayoutScheduler("hybrid"),
        )
    return SVC("gaussian", C=C, tol=TOL, gamma=gamma_for(n_features))


def untraced_job(data) -> Tuple[float, float, List[Fit]]:
    """Fit every dataset once with ``AdaptiveSVC``; returns wall and CPU
    seconds and the fits."""
    fits = []
    c0 = host.self_cpu_s()
    t_job = clock()
    for name, X, y in data:
        clf = _svc(X.shape[1], adaptive=True).fit(X, y)
        fits.append(Fit(name, clf.chosen_format, clf.result_, False))
    return clock() - t_job, host.self_cpu_s() - c0, fits


def traced_job(data, rec: SpanRecorder, job: int) -> Tuple[float, List[Fit], Dict[str, float]]:
    """The same job through decide -> convert -> fit, each step timed."""
    from repro.core import LayoutScheduler
    from repro.formats import convert
    from repro.perf.counters import OpCounter

    fits = []
    sums = {"core.decide_s": 0.0, "formats.convert_s": 0.0, "svm.fit_s": 0.0}
    counter = OpCounter()
    steps = []
    t_job = clock()
    for k, (name, X, y) in enumerate(data):
        t0 = clock()
        decision = LayoutScheduler("hybrid").decide(X)
        t1 = clock()
        Xc = convert(X, decision.fmt)
        t2 = clock()
        svc = _svc(X.shape[1], adaptive=False).fit(Xc, y, counter=counter)
        t3 = clock()
        sums["core.decide_s"] += t1 - t0
        sums["formats.convert_s"] += t2 - t1
        sums["svm.fit_s"] += t3 - t2
        sums[f"fit_s.{name}"] = t3 - t0
        steps.append((k, name, t0, t1, t2, t3))
        fits.append(Fit(name, decision.fmt, svc.result_, True))
    wall = clock() - t_job
    root = rec.add("train.job", t_job, t_job + wall, bid=job)
    for k, name, t0, t1, t2, t3 in steps:
        fit = rec.add(f"fit.{name}", t0, t3, parent=root, rid=k, bid=job)
        rec.add("core.decide", t0, t1, parent=fit, rid=k, bid=job)
        rec.add("formats.convert", t1, t2, parent=fit, rid=k, bid=job)
        rec.add("svm.fit", t2, t3, parent=fit, rid=k, bid=job)
    results = [f.result for f in fits]
    computed = sum(r.kernel_rows_computed for r in results)
    cached = sum(r.kernel_rows_cached for r in results)
    sums.update(
        {
            "svm.iterations": float(sum(r.iterations for r in results)),
            "svm.kernel_rows_computed": float(computed),
            "svm.row_cache_hit_pct": 100.0 * cached / max(cached + computed, 1),
            "formats.flops": float(counter.flops),
            "formats.bytes_computed": float(counter.bytes_total),
            "formats.spmm_calls": float(counter.spmm_calls),
            "formats.spmm_columns": float(counter.spmm_columns),
        }
    )
    sums["formats.gbps_computed"] = (
        counter.bytes_total / sums["svm.fit_s"] / 1e9 if sums["svm.fit_s"] else 0.0
    )
    return wall, fits, sums


def gram(X) -> np.ndarray:
    """Dense NumPy Gaussian kernel matrix, independent of the formats."""
    rows, cols, values = X.to_coo()
    D = np.zeros(X.shape)
    D[rows, cols] = values
    sq = np.einsum("ij,ij->i", D, D)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (D @ D.T), 0.0)
    return np.exp(-gamma_for(X.shape[1]) * d2)


def check_fit(K: np.ndarray, y: np.ndarray, result) -> List[str]:
    """Convergence and objective of one fit, recomputed from scratch."""
    problems = []
    alpha = result.alpha
    ay = alpha * y
    f = K @ ay - y
    eps = 1e-12 * C
    free = (alpha > eps) & (alpha < C - eps)
    pos, neg = y > 0, y < 0
    at_zero, at_c = alpha <= eps, alpha >= C - eps
    i_high = free | (pos & at_zero) | (neg & at_c)
    i_low = free | (pos & at_c) | (neg & at_zero)
    b_high = float(f[i_high].min())
    b_low = float(f[i_low].max())
    if not result.converged or b_low > b_high + 2.0 * TOL + 1e-9:
        problems.append(
            f"not converged: b_low {b_low:.6g} > b_high {b_high:.6g} + 2 tol"
        )
    objective = float(alpha.sum() - 0.5 * ay @ K @ ay)
    reported = result.objective(y)
    if abs(reported - objective) > 1e-9 * max(abs(objective), 1.0):
        problems.append(
            f"objective {reported!r} differs from recomputed {objective!r}"
        )
    return problems


def refit(X, y, fmt: str):
    """A plain fit of ``X`` converted to ``fmt``, untimed."""
    from repro.formats import convert

    return _svc(X.shape[1], adaptive=False).fit(convert(X, fmt), y).result_


def run(seed: int, seconds: float, traced: bool, smoke: bool, workdir: Path) -> Dict[str, Any]:
    files = prepare(seed, smoke, workdir)
    rec = SpanRecorder() if traced else None
    # The peak covers set-ups and jobs, not writing the files above.
    host.reset_peak_rss()
    setups, reads, coos = [], [], []

    def timed_setup():
        t0 = clock()
        data, read_s, coo_s = setup(files, None if setups else rec)
        setups.append(clock() - t0)
        reads.append(read_s)
        coos.append(coo_s)
        return data

    data = timed_setup()
    # Warm-up: first-call costs (lazy imports, allocator growth) are not
    # what a job measures.
    name, X, y = data[0]
    _svc(X.shape[1], adaptive=True).fit(X, y)

    walls, cpus, fits, traced_walls, layer_jobs = [], [], [], [], []
    t_start = clock()
    job = 0
    while True:
        wall, cpu, job_fits = untraced_job(data)
        walls.append(wall)
        cpus.append(cpu)
        fits.extend(job_fits)
        if traced:
            t_wall, t_fits, sums = traced_job(data, rec, job)
            traced_walls.append(t_wall)
            layer_jobs.append(sums)
            fits.extend(t_fits)
        job += 1
        if job >= MIN_JOBS and clock() - t_start >= seconds:
            break
        # Set-ups alternate with jobs, so their median samples the
        # machine over the whole run, not one moment of it.  The old
        # data goes first, so memory holds one copy.
        data = None
        data = timed_setup()
    peak_rss = host.self_peak_rss_mb()

    # Output checks, outside the timed region.
    problems: List[str] = []
    failed_fits = 0
    by_name = {name: (X, y) for name, X, y in data}
    grams = {name: gram(X) for name, (X, _) in by_name.items()}
    for fit in fits:
        found = check_fit(grams[fit.dataset], by_name[fit.dataset][1], fit.result)
        failed_fits += bool(found)
        problems.extend(f"{fit.dataset}: {p}" for p in found)
    mismatched_decisions = 0
    if traced:
        last_untraced: Dict[str, Fit] = {}
        for fit in fits:
            if not fit.traced:
                last_untraced[fit.dataset] = fit
                continue
            ref = last_untraced[fit.dataset]
            result = fit.result
            if ref.fmt != fit.fmt:
                # The hybrid scheduler times a probe, so two decisions on
                # one input may differ when two layouts are within noise.
                # The fit is then repeated in the untraced pick's layout,
                # so iterations and alpha are still compared bit for bit.
                mismatched_decisions += 1
                X, y = by_name[fit.dataset]
                result = refit(X, y, ref.fmt)
            if ref.result.iterations != result.iterations or not np.array_equal(
                ref.result.alpha, result.alpha
            ):
                failed_fits += 1
                problems.append(
                    f"{fit.dataset}: traced fit in {ref.fmt} differs from untraced "
                    f"({result.iterations} vs {ref.result.iterations} iterations)"
                )

    e2e = {
        "setup_s": median(setups),
        "p50_ms": median(walls) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    samples = {"setup_s": len(setups), "p50_ms": len(walls), "peak_rss_mb": 1}
    layer: Dict[str, float] = {
        "cpu_us_per_op": median(cpus) * 1e6,
        "data.read_libsvm_s": median(reads),
        "formats.from_coo_s": median(coos),
    }
    trace_info: Dict[str, Any] = {}
    if traced:
        for key in layer_jobs[0]:
            layer[key] = median([s[key] for s in layer_jobs])
        layer["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median(walls) - 1.0)
        trace_info = {
            "coverage": rec.coverage([f"fit.{n}" for n in DATASETS]),
            "roots": "fit.<dataset>",
            "mismatched_decisions": mismatched_decisions,
        }
    decisions: Dict[str, List[str]] = {}
    for fit in fits:
        decisions.setdefault(fit.dataset, []).append(fit.fmt)
    return {
        "e2e": e2e,
        "samples": samples,
        "layer": layer,
        "attempted": len(fits),
        "failed": failed_fits,
        "correct": not problems,
        "checks": {"problems": problems[:20], "fits_checked": len(fits)},
        "flags": (
            [
                f"{mismatched_decisions} traced decision(s) differed from the untraced "
                "pick; those fits were repeated in the untraced pick's layout"
            ]
            if mismatched_decisions else []
        ),
        "decisions": {k: sorted(set(v)) for k, v in decisions.items()},
        "jobs_s": walls,
        "traced_jobs_s": traced_walls,
        "setups_s": setups,
        "trace": trace_info,
        "recorder": rec,
    }
