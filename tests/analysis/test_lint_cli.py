"""The linter's one entry point, ``repro lint``, and its exit codes.

Also the gate this whole subsystem exists for: the repo's own source
tree must lint clean (every intentional exception carries a noqa).
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

BAD_KERNEL = '''\
class FakeMatrix:
    def matvec(self, x, counter=None):
        y = list(x)
        for i in range(len(y)):
            y[i] = y[i] * 2.0
        return y
'''


@pytest.fixture
def bad_file(tmp_path):
    """A file under a virtual formats/ path with RDL001+RDL004 hits."""
    target = tmp_path / "src" / "repro" / "formats" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_KERNEL)
    return target


class TestRepoLintsClean:
    def test_src_and_tests_have_no_findings(self, capsys):
        src = REPO_ROOT / "src"
        tests = REPO_ROOT / "tests"
        assert main(["lint", str(src), str(tests)]) == 0
        assert capsys.readouterr().out.strip().endswith("no findings")


class TestLintCommand:
    def test_findings_fail_with_text_rendering(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RDL001" in out and "RDL004" in out
        # file:line:col prefix on each finding line
        assert f"{bad_file}:4:" in out
        assert out.strip().endswith("2 findings")

    def test_json_mode_for_ci(self, bad_file, capsys):
        assert main(["lint", str(bad_file), "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["count"] == 2
        assert sorted(f["code"] for f in blob["findings"]) == [
            "RDL001",
            "RDL004",
        ]
        assert blob["findings"][0]["path"] == str(bad_file)

    def test_select_narrows_to_one_rule(self, bad_file, capsys):
        assert main(["lint", str(bad_file), "--select", "RDL001"]) == 1
        out = capsys.readouterr().out
        assert "RDL001" in out and "RDL004" not in out

    def test_ignore_drops_rules(self, bad_file, capsys):
        assert (
            main(["lint", str(bad_file), "--ignore", "RDL001,RDL004"]) == 0
        )
        assert "no findings" in capsys.readouterr().out

    def test_directory_expansion(self, bad_file, capsys):
        assert main(["lint", str(bad_file.parents[3]), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["count"] == 2

    def test_nonexistent_path_exits_2(self, capsys):
        # A typo'd path in a CI invocation must fail loudly, not lint
        # zero files and report success.
        assert main(["lint", "no/such/path"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_code_exits_2(self, bad_file, capsys):
        # A typo'd or retired code would otherwise select no rules and
        # report success, like a typo'd path.
        for code in ("RDL0O1", "RDL013", *(f"RDL{n:03d}" for n in (3, 7))):
            assert main(["lint", str(bad_file), "--select", code]) == 2
            err = capsys.readouterr().err
            assert f"unknown rule {code}" in err
            assert "known rules: RDL001" in err

    def test_unknown_ignore_code_exits_2(self, bad_file, capsys):
        assert main(["lint", str(bad_file), "--ignore", "RDL001,NOPE"]) == 2
        assert "unknown rule NOPE" in capsys.readouterr().err

    def test_clean_file_passes(self, tmp_path, capsys):
        ok = tmp_path / "src" / "repro" / "formats" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("X = 1\n")
        assert main(["lint", str(ok)]) == 0
        assert "no findings" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_rationale(self, capsys):
        assert main(["lint", "--explain", "RDL001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RDL001 — hot-path-python-loop")
        assert "cost model" in out
        assert "suppress with: # repro: noqa RDL001" in out

    def test_explain_every_registered_rule(self, capsys):
        from repro.analysis.rules import ALL_CODES

        for code in ALL_CODES:
            assert main(["lint", "--explain", code]) == 0
            assert code in capsys.readouterr().out

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "RDL999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err


class TestModuleEntryPoint:
    """``python -m repro lint --json``: what the Makefile and CI run."""

    def test_json_and_exit_status(self, bad_file, capsys):
        assert main(["lint", "--json", str(bad_file)]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["count"] == 2

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        ok = tmp_path / "ok.py"
        ok.write_text("X = 1\n")
        assert main(["lint", "--json", str(ok)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


RACY_POOL = '''\
class BlockPool:
    def ensure(self):
        if self._executor is None:
            self._executor = make_executor()
        return self._executor
'''


#: The concurrency family, as a static race report selects it.
RACE = "RDL009,RDL010,RDL011,RDL012"


class TestRaceCommand:
    """A static race report: ``repro lint --select`` the concurrency rules."""

    @pytest.fixture
    def racy_file(self, tmp_path):
        target = tmp_path / "src" / "repro" / "parallel" / "racy.py"
        target.parent.mkdir(parents=True)
        target.write_text(RACY_POOL)
        return target

    def test_src_tree_is_race_clean(self, capsys):
        assert main(["lint", "--select", RACE, str(REPO_ROOT / "src")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_fail_with_text_rendering(self, racy_file, capsys):
        assert main(["lint", "--select", "RDL012", str(racy_file)]) == 1
        out = capsys.readouterr().out
        assert "RDL012" in out
        assert f"{racy_file}:3:" in out

    def test_json_mode_for_ci(self, racy_file, capsys):
        assert (
            main(["lint", "--select", "RDL012", str(racy_file), "--json"])
            == 1
        )
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is False
        assert blob["findings"][0]["code"] == "RDL012"

    def test_only_concurrency_rules_run(self, bad_file, capsys):
        # RDL001/RDL004 territory: the race report must not show it.
        assert main(["lint", "--select", RACE, str(bad_file)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_nonexistent_path_exits_2(self, capsys):
        assert main(["lint", "--select", RACE, "no/such/path"]) == 2
        assert "no such file" in capsys.readouterr().err
