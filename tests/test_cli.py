"""CLI tests (invoked in-process via repro.cli.main)."""

import numpy as np
import pytest

from repro.cli import main
from repro.data import load_dataset, write_libsvm


@pytest.fixture
def libsvm_file(tmp_path):
    ds = load_dataset("aloi", seed=0, m_override=150)
    path = tmp_path / "aloi.libsvm"
    write_libsvm(path, (ds.rows, ds.cols, ds.values, ds.shape), ds.y)
    return str(path), ds.shape[1]


class TestCLI:
    def test_profile(self, libsvm_file, capsys):
        path, n = libsvm_file
        assert main(["profile", path, "--n-features", str(n)]) == 0
        out = capsys.readouterr().out
        assert "DatasetProfile" in out
        assert "vdim" in out

    def test_schedule(self, libsvm_file, capsys):
        path, n = libsvm_file
        assert (
            main(
                [
                    "schedule", path, "--n-features", str(n),
                    "--strategy", "cost",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "format" in out and "reason" in out

    def test_train(self, libsvm_file, capsys):
        path, n = libsvm_file
        assert (
            main(
                [
                    "train", path, "--n-features", str(n),
                    "--strategy", "cost", "--max-iter", "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "train acc" in out
        acc = float(
            [l for l in out.splitlines() if "train acc" in l][0].split(":")[1]
        )
        assert acc > 0.8

    def test_train_sanitize(self, libsvm_file, capsys, monkeypatch):
        # setenv records the pre-test state so the flag the command
        # writes into os.environ is rolled back after the test.
        monkeypatch.setenv("REPRO_SANITIZE", "")
        path, n = libsvm_file
        assert (
            main(
                [
                    "train", path, "--n-features", str(n),
                    "--strategy", "cost", "--max-iter", "500",
                    "--sanitize",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "train acc" in out

    def test_train_rejects_multiclass(self, tmp_path, capsys):
        ds = load_dataset("aloi", seed=0, m_override=50)
        y = np.arange(50, dtype=float) % 3  # three classes
        path = tmp_path / "multi.libsvm"
        write_libsvm(path, (ds.rows, ds.cols, ds.values, ds.shape), y)
        assert main(["train", str(path)]) == 2
        assert "binary" in capsys.readouterr().err

    def test_train_cache_mb(self, libsvm_file, capsys):
        path, n = libsvm_file
        assert (
            main(
                [
                    "train", path, "--n-features", str(n),
                    "--strategy", "cost", "--max-iter", "500",
                    "--cache-mb", "1",
                ]
            )
            == 0
        )
        assert "train acc" in capsys.readouterr().out

    def test_bench_smsv_quick(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_smsv.json"
        assert (
            main(
                [
                    "bench", "smsv", "--quick", "--repeats", "1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "dual_row_speedup" in stdout
        blob = json.loads(out.read_text())
        assert blob["quick"] is True
        assert blob["gates"][0]["threshold"] == 1.4

    def test_bench_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            main(["bench", "nosuch"])

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "trefethen" in out and "gisette" in out

    def test_table7(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "Tune B on DGX station" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "dgx" in out and "79,000" in out

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_invocation(self, libsvm_file):
        import subprocess
        import sys

        path, n = libsvm_file
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "profile", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "DatasetProfile" in proc.stdout


class TestExplain:
    def test_schedule_explain(self, libsvm_file, capsys):
        path, n = libsvm_file
        assert (
            main(
                [
                    "schedule", path, "--n-features", str(n),
                    "--strategy", "cost", "--explain",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "influencing parameters" in out
        assert "rule-based decision" in out
        assert "cost model ranking" in out

    def test_explain_function_directly(self):
        from repro.core import LayoutScheduler, explain
        from repro.data import load_dataset

        p = load_dataset("trefethen", seed=0).profile
        text = explain(LayoutScheduler("rules").decide_profile(p, batch_k=1))
        assert "banded" in text  # the rule that fires for trefethen
        assert "DIA" in text

    def test_explain_renders_the_probed_decision(self):
        # The explanation shows the decision that was made, measurements
        # included, not a fresh ranking of its profile.
        from repro.core import AutoTuner, LayoutScheduler, explain
        from repro.data.synthetic import uniform_rows_matrix

        coo = uniform_rows_matrix(200, 80, 6, seed=7)
        d = LayoutScheduler(
            "probe", tuner=AutoTuner(repeats=1, smsv_per_probe=1)
        ).decide_from_coo(*coo)
        text = explain(d)
        assert "source probe" in text
        assert "probe, measured seconds" in text
        assert text.rstrip().splitlines()[-1] == f"-> {d.fmt}"


class TestTuneCLI:
    @pytest.fixture(autouse=True)
    def _cache(self, tmp_path, monkeypatch):
        from repro.tune.cache import reset_tune_cache

        path = tmp_path / "tune.json"
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
        reset_tune_cache()
        yield path
        reset_tune_cache()

    def test_tune_dataset_persists_only_knob_families(
        self, libsvm_file, _cache, capsys
    ):
        import json

        path, _n = libsvm_file
        code = main(
            [
                "tune", "--dataset", path,
                "--families", "sell_chunk,sigma",
                "--budget", "8", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == str(_cache)
        result = payload["datasets"][path]
        assert set(result["families"]) == {"sell_chunk", "sigma"}
        assert "format" not in result
        for r in result["families"].values():
            assert r["best_seconds"] <= r["default_seconds"]
        doc = json.loads(_cache.read_text())
        families = {key.rsplit("|", 1)[1] for key in doc["entries"]}
        assert families == {"sell_chunk", "sigma"}

    def test_tune_rejects_a_retired_family(self, _cache, capsys):
        assert main(["tune", "--families", "workers"]) == 2
        err = capsys.readouterr().err
        assert "unknown knob family 'workers'" in err
        assert "sell_chunk, sigma, row_cache_mb" in err
        assert not _cache.exists()


class TestServeCLI:
    def test_serve_default_demo_reschedules_once(self, capsys):
        import json

        assert main(["serve", "--json", "--backend", "local"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["served"] == 264
        assert snap["batches"] == 89
        assert snap["degraded"] == 0
        assert snap["workers"] == 1
        assert [
            (e["from"], e["to"], e["effective_k"]) for e in snap["events"]
        ] == [("ELL", "COO", 6)]
        assert snap["initial_format"] == {"flip@w0": "ELL"}
        assert snap["final_format"] == {"flip@w0": "COO"}

    def test_serve_loaded_model_on_two_workers(self, tmp_path, capsys):
        import json

        from repro.svm import SVC

        rng = np.random.default_rng(0)
        x = rng.standard_normal((120, 7))
        y = np.where(x[:, 0] + x[:, 1] > 0, 1.0, -1.0)
        path = tmp_path / "model.npz"
        SVC("gaussian", gamma=0.4, C=2.0).fit(x, y).save(path)
        assert (
            main(
                [
                    "serve", "--model", str(path), "--workers", "2",
                    "--backend", "local", "--json",
                ]
            )
            == 0
        )
        snap = json.loads(capsys.readouterr().out)
        assert snap["workers"] == 2
        assert snap["served"] == 264
        assert set(snap["per_shard_served"]) == {"0", "1"}
        assert all(c > 0 for c in snap["per_shard_served"].values())
        assert sum(snap["per_shard_served"].values()) == snap["served"]


class TestObservabilityCLI:
    @pytest.fixture(autouse=True)
    def _restore_tracer(self):
        from repro.obs.audit import audit_log
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        prev = tracer.enabled
        tracer.clear()
        audit_log().clear()
        yield
        tracer.clear()
        audit_log().clear()
        tracer.enabled = prev

    def test_train_trace_flag(self, libsvm_file, capsys):
        from repro.obs.trace import get_tracer

        path, n = libsvm_file
        assert (
            main(
                [
                    "train", path, "--n-features", str(n),
                    "--strategy", "cost", "--max-iter", "500",
                    "--trace",
                ]
            )
            == 0
        )
        names = {s.name for s in get_tracer().spans()}
        assert "smo.train" in names
        assert "schedule.decide" in names

    def test_trace_verb_exports_all_artifacts(
        self, libsvm_file, tmp_path, capsys
    ):
        import json

        path, n = libsvm_file
        spans = tmp_path / "spans.jsonl"
        chrome = tmp_path / "trace.json"
        audit = tmp_path / "audit.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--trace-out", str(spans),
                    "--chrome", str(chrome),
                    "--audit-out", str(audit),
                    "train", path, "--n-features", str(n),
                    "--strategy", "cost", "--max-iter", "500",
                ]
            )
            == 0
        )
        from repro.obs.export import (
            read_audit_jsonl,
            read_spans_jsonl,
            validate_chrome_trace,
        )
        from repro.obs.trace import span_tree

        reloaded = read_spans_jsonl(spans)
        assert reloaded
        roots = {n_.record.name for n_ in span_tree(reloaded)}
        assert "smo.train" in roots
        validate_chrome_trace(json.loads(chrome.read_text()))
        records = read_audit_jsonl(audit)
        assert [r.source for r in records] == ["schedule"]
        assert records[0].dataset == path
        err = capsys.readouterr().err
        assert "spans" in err and "audited decisions" in err

    def test_trace_rejects_misplaced_options(self, libsvm_file, capsys):
        path, _ = libsvm_file
        assert main(["trace", "train", path, "--trace-out", "x"]) == 2
        assert "before the wrapped command" in capsys.readouterr().err

    def test_trace_rejects_empty_and_recursive(self, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "trace", "datasets"]) == 2

    def test_bench_obs_quick(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_obs.json"
        assert (
            main(
                [
                    "bench", "obs", "--quick", "--repeats", "3",
                    "--out", str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "overhead" in stdout
        blob = json.loads(out.read_text())
        assert blob["suite"] == "obs"
        assert blob["pass"] is True

    def test_obs_report_quick(self, capsys):
        assert main(["obs", "report", "--quick", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "dense" in out
        assert "prediction matched measurement" in out

    def test_obs_report_json(self, capsys):
        import json

        assert (
            main(
                ["obs", "report", "--quick", "--repeats", "1", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_datasets"] == 5
        rows = {r["dataset"]: r for r in payload["rows"]}
        assert rows["dense"]["regret"] == 0.0


class TestFleetObservabilityCLI:
    @pytest.fixture(autouse=True)
    def _restore_obs_state(self):
        from repro.obs.audit import audit_log
        from repro.obs.collect import clear_fleet_trace
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        prev = tracer.enabled
        tracer.clear()
        audit_log().clear()
        clear_fleet_trace()
        yield
        tracer.clear()
        audit_log().clear()
        clear_fleet_trace()
        tracer.enabled = prev

    def test_trace_serve_fleet_exports_merged_timeline(
        self, tmp_path, capsys
    ):
        import json

        spans = tmp_path / "spans.jsonl"
        chrome = tmp_path / "chrome.json"
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "trace",
                    "--trace-out", str(spans),
                    "--chrome", str(chrome),
                    "--metrics-out", str(metrics),
                    "serve", "--workers", "2", "--backend", "process",
                ]
            )
            == 0
        )
        from repro.obs.export import (
            read_spans_meta,
            validate_chrome_trace,
        )

        payload = json.loads(chrome.read_text())
        validate_chrome_trace(payload)
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {0, 1, 2}  # door lane + one per worker
        meta = read_spans_meta(spans)
        assert set(meta["dropped"]) == {"0", "1", "2"}
        prom = metrics.read_text()
        assert "repro_obs_tracer_spans" in prom
        assert "repro_fleet_served" in prom
        err = capsys.readouterr().err
        assert "3 processes" in err

    def test_obs_slo_reports_breaches(self, tmp_path, capsys):
        dump = tmp_path / "flight.jsonl"
        assert (
            main(
                [
                    "obs", "slo", "--latency-ms", "0.0001",
                    "--dump", str(dump),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BREACHED" in out
        assert "latency_p99" in out
        assert dump.exists()

    def test_obs_slo_json_payload(self, capsys):
        import json

        assert main(["obs", "slo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {s["name"] for s in payload["specs"]} == {
            "latency_p99", "deadline_miss", "rejection",
            "shard_saturation",
        }
        assert payload["served"] > 0

    def test_obs_dump_renders_flight_file(self, tmp_path, capsys):
        from repro.obs.flight import FlightRecorder

        rec = FlightRecorder(enabled=True)
        rec.record("rebalance", model="alpha")
        path = tmp_path / "flight.jsonl"
        rec.dump(path, reason="manual")
        assert main(["obs", "dump", str(path)]) == 0
        out = capsys.readouterr().out
        assert "manual" in out and "rebalance" in out

    def test_obs_dump_rejects_bad_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "dump", str(missing)]) == 2
        assert "error" in capsys.readouterr().err
