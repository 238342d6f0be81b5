from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from permwords import brute_count_pairs, cli, perm_core, wordlang


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

    def test_empty_pattern(self, capsys):
        code, out, err = run_main(["count", "--pattern", ""], capsys)
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_typo_in_a_permutation(self, capsys):
        # A typo in a permutation is a usage error, not some other permutation.
        for argv in (["encode", "3,6,,1,2,7,4,5"], ["count", "--pattern", ",1,3,2,4,"]):
            code, out, err = run_main(argv, capsys)
            assert code == 2, argv
            assert "error:" in err
            assert out == ""

    def test_count_cap(self, capsys):
        for argv in (
            ["count", "--n", "99"],
            ["count", "--n", "19"],
            ["count", "--pattern", "4231", "--n", "14"],
            ["reproduce", "--n", "19"],
        ):
            code, out, err = run_main(argv, capsys)
            assert code == 2, argv
            assert "capped" in err
            assert out == ""
        # The chain check would pass over no length at all; a count of
        # length 0 checks nothing and stays valid.
        code, out, err = run_main(["reproduce", "--n", "0"], capsys)
        assert code == 2
        assert "--n must be at least 1, got 0" in err
        assert out == ""
        code, out, _ = run_main(["count", "--n", "0"], capsys)
        assert code == 0
        assert "n=0  avoiders=1" in out

    def test_verify_n_cap(self, capsys):
        code, out, err = run_main(["verify", "--suite", "roots", "--n", "11"], capsys)
        assert code == 2
        assert "--n capped at 10" in err
        assert out == ""
        # At n = 0 the sweeps would pass on no avoider at all.
        code, out, err = run_main(["verify", "--suite", "lemmas", "--n", "0"], capsys)
        assert code == 2
        assert "--n must be at least 1, got 0" in err
        assert out == ""

    def test_verify_pair_cap(self, capsys):
        code, out, err = run_main(["verify", "--suite", "gf", "--cap-pairs", "33"], capsys)
        assert code == 2
        assert "--cap-pairs capped at 32, got 33" in err
        assert out == ""
        # Below 2 every pair check would run over an empty range.
        for cap in ("1", "0"):
            code, out, err = run_main(["verify", "--suite", "gf", "--cap-pairs", cap], capsys)
            assert code == 2, cap
            assert f"--cap-pairs must be at least 2, got {cap}" in err
            assert out == ""

    def test_negative_n(self, capsys):
        code, _, err = run_main(["verify", "--suite", "lemmas", "--n", "-1"], capsys)
        assert code == 2

    def test_removed_options_are_rejected(self, capsys):
        # reproduce expands the pair series to 2n and verify certifies
        # roots at the library's tolerance; neither takes an option for it.
        for argv in (
            ["reproduce", "--n", "4", "--cap-pairs", "14"],
            ["verify", "--suite", "roots", "--tol-alpha", "1e-11"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        # The report still prints; the failed write is a usage error,
        # not a failed check, and leaves no traceback.
        target = tmp_path / "missing" / "report.json"
        for argv, shown in (
            (["count", "--n", "3"], "n=3  avoiders=6"),
            (["verify", "--suite", "roots"], "PASS  bound-cab:"),
        ):
            code, out, err = run_main([*argv, "--out", str(target)], capsys)
            assert code == 2, argv
            assert shown in out
            assert err == f"error: cannot write --out {target}: No such file or directory\n"
            assert not target.parent.exists()

    def test_library_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        # Only the argument check's errors are usage errors; a ValueError
        # raised inside a suite propagates with its traceback.
        def fault(w, z, rules):
            raise ValueError("internal: bad state")

        monkeypatch.setattr(wordlang, "check_pair", fault)
        with pytest.raises(ValueError, match="internal: bad state"):
            cli.main(["verify", "--suite", "lemmas", "--n", "3"])
        assert "error:" not in capsys.readouterr().err

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

    def test_dp_states_counted(self, capsys):
        # Pinned on fresh caches; each engine reports its own memo.
        for argv, states in (
            (["count", "--n", "8"], 105),
            (["count", "--pattern", "4231", "--n", "8"], 159),
            (["reproduce", "--n", "9"], 195),
            (["count", "--n", "16"], 25409),
        ):
            perm_core._completions_1324.cache_clear()
            perm_core._completions_generic.cache_clear()
            code, out, _ = run_main([*argv, "--format", "json"], capsys)
            assert code == 0, argv
            assert json.loads(out)["counters"] == {"dp_states": states}, argv


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
    def test_each_bound_interval_sits_inside_its_tolerance(self):
        # The whole certified interval [1/hi^2, 1/lo^2], not only the
        # float bound, must pass: where bisection stops cannot decide a row.
        for name, gf, reference, tolerance in cli.BOUND_ROWS:
            est = cli.certified_smallest_root(gf.den)
            for end in (est.value + est.radius, est.value - est.radius):
                assert abs(1 / end**2 - reference) <= tolerance, name

    def test_roots_suite_passes(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "roots"], capsys)
        assert code == 0
        assert "PASS  bound-cab:" in out
        assert "FAIL" not in out

    def test_lemmas_suite_small(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "lemmas", "--n", "5"], capsys)
        assert code == 0
        for rule in ("cab", "cabb", "cab-k"):
            assert f"PASS  avoider-pairs-{rule}: 135 avoiders checked for n<=5, 0 violations" in out

    def test_lemmas_suite_reports_violations(self, capsys, monkeypatch):
        monkeypatch.setattr(wordlang, "check_pair", lambda w, z, rules: False)
        code, out, _ = run_main(["verify", "--suite", "lemmas", "--n", "2"], capsys)
        assert code == 1
        for rule in ("cab", "cabb", "cab-k"):
            assert (
                f"FAIL  avoider-pairs-{rule}: 3 avoiders checked for n<=2, violations: "
                "[\"n=1:('1', 'A', 'A')\", \"n=2:('12', 'AD', 'AD')\", "
                "\"n=2:('21', 'AA', 'AA')\"]"
            ) in out

    def test_injectivity_suite_small(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "injectivity", "--n", "6"], capsys)
        assert code == 0
        for mode in ("plain", "rule4prime"):
            assert f"PASS  injectivity-{mode}: 648 avoiders with n<=6 map to distinct pairs" in out

    def test_sweeps_count_their_work(self, capsys):
        def counters(suite):
            argv = ["verify", "--suite", suite, "--n", "6", "--cap-pairs", "8", "--format", "json"]
            code, out, _ = run_main(argv, capsys)
            assert code == 0, suite
            return json.loads(out)["counters"]

        walked = {"injectivity_avoiders": 648, "pairs_decoded": 1296}
        screened = {"lemma_avoiders": 648, "pairs_screened": 648}
        assert counters("injectivity") == walked
        assert counters("lemmas") == screened
        # --suite all keeps the two walks apart.
        assert counters("all") == {**walked, **screened}
        # The pair counts and roots report no work counter.
        for suite in ("gf", "roots"):
            assert counters(suite) == {}, suite

    def test_injectivity_suite_fails_on_a_wrong_decode(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "decode", lambda w, z: tuple(range(len(w), 0, -1)))
        code, out, _ = run_main(["verify", "--suite", "injectivity", "--n", "3"], capsys)
        assert code == 1
        for mode, w in (("plain", "AB"), ("rule4prime", "AD")):
            assert f"FAIL  injectivity-{mode}: round trip fails at 12 -> ({w}, {w}) decodes to (2, 1)" in out

    def test_injectivity_suite_fails_when_decode_raises(self, capsys, monkeypatch):
        def refuse(w, z):
            raise ValueError("no B value above 1 left for position 2")

        monkeypatch.setattr(cli, "decode", refuse)
        code, out, err = run_main(["verify", "--suite", "injectivity", "--n", "3"], capsys)
        assert code == 1
        assert err == ""
        for mode in ("plain", "rule4prime"):
            assert (
                f"FAIL  injectivity-{mode}: round trip fails at 1 -> (A, A) does not "
                "decode: no B value above 1 left for position 2"
            ) in out

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # Same machinery, impossible reference value: the report must
        # flip to FAIL and the exit code to 1.
        rows = [list(r) for r in cli.BOUND_ROWS]
        rows[0][2] = 99.0
        monkeypatch.setattr(cli, "BOUND_ROWS", [tuple(r) for r in rows])
        code, out, _ = run_main(["verify", "--suite", "roots"], capsys)
        assert code == 1
        assert "FAIL  bound-baseline:" in out

    def test_failing_check_in_plain_and_csv(self, capsys, monkeypatch):
        # Both renderings come from the one report: the plain footer counts
        # the failure, and the CSV has one row per check under its header.
        rows = [list(r) for r in cli.BOUND_ROWS]
        rows[0][2] = 99.0
        monkeypatch.setattr(cli, "BOUND_ROWS", [tuple(r) for r in rows])
        argv = ["verify", "--suite", "roots", "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 1
        checks = json.loads(out)["checks"]
        n = len(checks)
        assert n == 6
        code, out, _ = run_main(argv[:-1] + ["plain"], capsys)
        assert code == 1
        assert out.splitlines()[-1] == f"{n - 1}/{n} checks passed"
        code, out, _ = run_main(argv[:-1] + ["csv"], capsys)
        assert code == 1
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["name", "passed", "detail"]
        assert table[1:] == [[c["name"], str(c["passed"]), c["detail"]] for c in checks]
        assert table[1][:2] == ["bound-baseline", "False"]

    def test_out_file_equals_json_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ["verify", "--suite", "all", "--n", "4", "--cap-pairs", "6"]
        code, out, _ = run_main([*argv, "--format", "json", "--out", str(target)], capsys)
        assert code == 0
        # print adds the newline that the file write adds itself.
        assert target.read_text(encoding="utf-8") == out
        assert json.loads(out)["ok"] is True

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

    def test_gf_check_rows_are_pinned(self, capsys):
        argv = ["verify", "--suite", "gf", "--cap-pairs", "8", "--format", "json"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        exhaustive = "series coefficients equal exhaustive pair counts for 2<=n<=8"
        identity = "exact identity, residual numerator []"
        assert json.loads(out)["checks"] == [
            {"name": "pairs-cab-identity", "passed": True, "detail": identity},
            {"name": "pairs-cabb-identity", "passed": True, "detail": identity},
            {
                "name": "pairs-cab-run-identity",
                "passed": True,
                "detail": "unverifiable-as-printed; displayed equation has a dangling "
                "sum; checked against exhaustive pair counts instead (2..8)",
            },
            {"name": "pairs-cab-vs-exhaustive", "passed": True, "detail": exhaustive},
            {"name": "pairs-cabb-vs-exhaustive", "passed": True, "detail": exhaustive},
            {"name": "pairs-cab-run-vs-exhaustive", "passed": True, "detail": exhaustive},
            {"name": "segment-series-vs-count", "passed": True, "detail": "coefficients 0..12 agree"},
            {"name": "nocb-series-vs-count", "passed": True, "detail": "coefficients 0..12 agree"},
        ]

    def test_gf_compares_each_rule_set_once(self, capsys, monkeypatch):
        # One exhaustive count per rule set, sized for the cap, whichever
        # module the call goes through: its row holds every shorter count.
        calls = []

        def counted(n, rules=wordlang.PairRule.NONE):
            calls.append((n, rules))
            return brute_count_pairs(n, rules)

        monkeypatch.setattr(cli, "brute_count_pairs", counted)
        monkeypatch.setattr(wordlang, "brute_count_pairs", counted)
        code, _, _ = run_main(["verify", "--suite", "gf", "--cap-pairs", "8"], capsys)
        assert code == 0
        assert calls == [
            (8, wordlang.PairRule.CAB_NEEDS_B),
            (8, wordlang.PairRule.CABB_NEEDS_BB),
            (8, wordlang.PairRule.RUN_NEEDS_MATCH),
        ]

    def test_cab_run_identity_row_takes_the_exhaustive_result(self, capsys, monkeypatch):
        # The as-printed run equation checks nothing itself; its row passes
        # or fails with the run series' exhaustive comparison.
        def off_by_one(n, rules=wordlang.PairRule.NONE):
            row = brute_count_pairs(n, rules)
            row[5] += rules == wordlang.PairRule.RUN_NEEDS_MATCH
            return row

        monkeypatch.setattr(cli, "brute_count_pairs", off_by_one)
        monkeypatch.setattr(wordlang, "brute_count_pairs", off_by_one)
        code, out, _ = run_main(["verify", "--suite", "gf", "--cap-pairs", "8"], capsys)
        assert code == 1
        failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  pairs-cab-run-identity", "FAIL  pairs-cab-run-vs-exhaustive"]

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
