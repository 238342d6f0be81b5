from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from permwords import brute_count_pairs, cli


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_bad_permutation(self, capsys):
        code, _, err = run_main(["encode", "1321"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_pattern(self, capsys):
        code, _, err = run_main(["count", "--pattern", "122"], capsys)
        assert code == 2

    def test_count_cap(self, capsys):
        for argv in (
            ["count", "--n", "99"],
            ["count", "--n", "19"],
            ["count", "--pattern", "4231", "--n", "12"],
            ["reproduce", "--n", "19"],
        ):
            code, out, err = run_main(argv, capsys)
            assert code == 2, argv
            assert "capped" in err
            assert out == ""

    def test_verify_n_cap(self, capsys):
        code, out, err = run_main(["verify", "--suite", "roots", "--n", "11"], capsys)
        assert code == 2
        assert "--n capped at 10" in err
        assert out == ""

    def test_verify_pair_cap(self, capsys):
        code, out, err = run_main(["verify", "--suite", "gf", "--cap-pairs", "17"], capsys)
        assert code == 2
        assert "--cap-pairs capped at 16" in err
        assert out == ""

    def test_negative_n(self, capsys):
        code, _, err = run_main(["verify", "--suite", "lemmas", "--n", "-1"], capsys)
        assert code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestCount:
    def test_plain(self, capsys):
        code, out, _ = run_main(["count", "--n", "5"], capsys)
        assert code == 0
        assert "n=5  avoiders=103" in out

    def test_json_is_deterministic(self, capsys):
        code, out1, _ = run_main(["count", "--n", "4", "--format", "json"], capsys)
        _, out2, _ = run_main(["count", "--n", "4", "--format", "json"], capsys)
        assert code == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1["timings"] = doc2["timings"] = None
        assert doc1 == doc2
        rows = doc1["tables"]["avoider-counts"]
        assert rows[4] == {"n": 4, "avoiders": 23}

    def test_csv(self, capsys):
        code, out, _ = run_main(["count", "--n", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "#avoider-counts"
        assert lines[1] == "n,avoiders"
        assert lines[-1] == "3,6"

    def test_other_pattern(self, capsys):
        code, out, _ = run_main(["count", "--n", "5", "--pattern", "132"], capsys)
        assert code == 0
        assert "n=5  avoiders=42" in out


class TestEncode:
    def test_plain_format(self, capsys):
        code, out, _ = run_main(["encode", "3612745"], capsys)
        assert code == 0
        assert "w      ABABDCD" in out
        assert "z      ABACDBD" in out

    def test_json_format(self, capsys):
        code, out, _ = run_main(
            ["encode", "3612745", "--mode", "plain", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == "ABABBCD"
        assert doc["z"] == "ABACDBB"
        assert doc["colors"] == "RRRRRBB"
        assert doc["mode"] == "plain"


class TestVerify:
    def test_roots_suite_passes(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "roots"], capsys)
        assert code == 0
        assert "PASS  bound-cab:" in out
        assert "FAIL" not in out

    def test_lemmas_suite_small(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "lemmas", "--n", "5"], capsys)
        assert code == 0
        assert "avoider-pairs-cab" in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # Same machinery, impossible reference value: the report must
        # flip to FAIL and the exit code to 1.
        rows = [list(r) for r in cli.BOUND_ROWS]
        rows[0][2] = 99.0
        monkeypatch.setattr(cli, "BOUND_ROWS", [tuple(r) for r in rows])
        code, out, _ = run_main(["verify", "--suite", "roots"], capsys)
        assert code == 1
        assert "FAIL  bound-baseline:" in out

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_main(
            ["verify", "--suite", "roots", "--out", str(target)], capsys
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["ok"] is True
        assert doc["command"] == "verify"
        names = [c["name"] for c in doc["checks"]]
        assert "alpha-digits" in names

    def test_gf_counts_signature_keys(self, capsys):
        # w and z table keys over word lengths 1..7; a cache that already
        # reaches further must not change the count.
        argv = ["verify", "--suite", "gf", "--cap-pairs", "8", "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert json.loads(out)["counters"] == {"signature_keys": 311}
        brute_count_pairs(12)
        _, again, _ = run_main(argv, capsys)
        assert json.loads(again)["counters"] == {"signature_keys": 311}
        code, out, _ = run_main(["verify", "--suite", "roots", "--format", "json"], capsys)
        assert json.loads(out)["counters"] == {}

    def test_json_floats_are_rounded(self, capsys):
        code, out, _ = run_main(
            ["verify", "--suite", "roots", "--format", "json"], capsys
        )
        doc = json.loads(out)
        for value in doc["timings"].values():
            assert value == float(f"{value:.10g}")


class TestReproduce:
    def test_small_chain(self, capsys):
        code, out, _ = run_main(["reproduce", "--n", "4", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        chain = doc["tables"]["chain"]
        assert chain[3]["avoiders"] == 23
        assert chain[3]["pairs_cab"] == 5353
        assert chain[3]["pairs_cabb"] == 5352
        assert chain[3]["pairs_cab_run"] == 5352
        assert all(row["chain_holds"] for row in chain)
        assert doc["ok"] is True

    def test_csv_contains_bounds(self, capsys):
        code, out, _ = run_main(["reproduce", "--n", "3", "--format", "csv"], capsys)
        assert code == 0
        assert "#bounds" in out
        assert "bound-cab-run" in out


class TestConsoleScript:
    def test_entry_point_runs(self):
        # The child imports permwords from wherever this process did.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "permwords.cli", "count", "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "n=3  avoiders=6" in proc.stdout
