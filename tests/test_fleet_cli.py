"""The `repro fleet` subcommand."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError


class TestPlan:
    def test_plan_lists_runs(self, capsys):
        assert main(["fleet", "plan", "--campaign", "matrix",
                     "--seeds", "1", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "matrix-fleet" in out
        assert "smart-none-s0000-" in out
        lines = [l for l in out.splitlines() if "-s0000-" in l]
        assert len(lines) == 5

    def test_plan_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({
            "name": "from-file",
            "base": {"block_count": 8},
            "axes": {"mechanism": ["smart", "erasmus"]},
            "seeds": [0, 1],
        }))
        assert main(["fleet", "plan", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out and "4 runs" in out

    @pytest.mark.parametrize("base", [
        {"algorithm": "md5"},
        {"block_count": 0},
    ])
    def test_bad_spec_rejected_before_any_run(self, tmp_path, base):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps({
            "name": "bad", "base": base,
            "axes": {"mechanism": ["smart"]}, "seeds": [0],
        }))
        with pytest.raises(ConfigurationError):
            main(["fleet", "run", "--spec", str(spec_file),
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["fleet"])


class TestRunAndSummarize:
    def run_small(self, tmp_path, capsys, extra=()):
        code = main([
            "fleet", "run", "--campaign", "locking", "--seeds", "1",
            "--limit", "4", "--out", str(tmp_path), *extra,
        ])
        assert code == 0
        return capsys.readouterr().out

    def test_run_writes_artifacts_and_summary(self, tmp_path, capsys):
        out = self.run_small(tmp_path, capsys)
        assert "4 runs" in out
        assert "ok=4" in out
        assert "mechanism" in out  # the summary table
        root = tmp_path / "locking-availability"
        assert (root / "runs.jsonl").exists()
        assert (root / "manifest.json").exists()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["run_count"] == 4

    def test_resume_skips_finished_runs(self, tmp_path, capsys):
        self.run_small(tmp_path, capsys)
        out = self.run_small(tmp_path, capsys, extra=["--resume"])
        assert "0 runs" in out  # nothing left to execute
        manifest = json.loads(
            (tmp_path / "locking-availability" / "manifest.json").read_text()
        )
        assert manifest["run_count"] == 4  # artifacts keep all results

    def test_summarize_reads_artifacts(self, tmp_path, capsys):
        self.run_small(tmp_path, capsys)
        assert main(["fleet", "summarize", "--campaign",
                     "locking-availability", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "locking-availability" in out and "no-lock" in out

    def test_summarize_resolves_a_canned_key(self, tmp_path, capsys):
        # `fleet run --campaign faults` writes under the spec name
        # (fault-matrix/); summarize must find it by the same key
        assert main(["fleet", "run", "--campaign", "faults", "--seeds", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["fleet", "summarize", "--campaign", "faults",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign fault-matrix: 9 runs" in out
        assert "mechanism" in out

    def test_summarize_without_artifacts_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fleet", "summarize", "--campaign", "ghost",
                  "--out", str(tmp_path)])
