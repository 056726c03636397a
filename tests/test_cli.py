"""End-to-end tests of the mzv command-line interface."""

import argparse
import io
import json

import pytest

from mzvkit import dsh
from mzvkit.cli import main, parse_index, parse_int_range


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def run_json(argv):
    rc, text = run(argv)
    return rc, json.loads(text)


class TestParsing:
    def test_index_forms(self):
        assert parse_index("(1,2,3)") == (1, 2, 3)
        assert parse_index("1,2,3") == (1, 2, 3)
        assert parse_index("3") == (3,)
        assert parse_index("()") == ()

    def test_index_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_index("(1,0)")

    def test_int_range(self):
        assert parse_int_range("0..12") == (0, 12)
        assert parse_int_range("5") == (5, 5)
        assert parse_int_range("7:9") == (7, 9)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_int_range("9..7")


class TestEval:
    def test_weight_two(self):
        rc, payload = run_json(["eval", "--index", "(2)", "--digits", "40"])
        assert rc == 0
        assert payload["value"].startswith("1.64493406684822643647")

    def test_global_flag_positions_agree(self):
        _, a = run_json(["--digits", "30", "eval", "--index", "(3)"])
        _, b = run_json(["eval", "--index", "(3)", "--digits", "30"])
        assert a["value"] == b["value"]

    def test_non_admissible_rejected(self):
        rc, _ = run(["eval", "--index", "(2,1)"])
        assert rc == 2


class TestReg:
    def test_stuffle_polynomial(self):
        rc, payload = run_json(["reg", "--index", "(2,1)"])
        assert rc == 0
        assert payload["polynomial"] == {
            "T^0": {"(3)": "-1", "(1,2)": "-1"},
            "T^1": {"(2)": "1"},
        }

    def test_natural_ones(self):
        rc, payload = run_json(["reg", "--index", "(1,1)",
                                "--scheme", "natural"])
        assert rc == 0
        assert payload["polynomial"] == {"T^2": {"()": "1/2"}}

    def test_shuffle_scheme(self):
        rc, payload = run_json(["reg", "--index", "(2,1)",
                                "--scheme", "shuffle"])
        assert rc == 0
        assert payload["constant_term"] == {"(1,2)": "-2"}


class TestFinite:
    def test_eval_natural(self):
        rc, payload = run_json(["finite", "eval", "--index", "(2,1)",
                                "--scheme", "natural"])
        assert rc == 0
        assert payload["combo"] == {"(3)": "-1", "(1,2)": "-2"}
        assert payload["value"].startswith("-3.6061707094787828")

    def test_modp_totally_odd_vanishes(self):
        rc, payload = run_json(["finite", "modp", "--index", "(1,1)",
                                "--primes", "5..30", "--natural"])
        assert rc == 0
        assert payload["rows"]
        assert all(row["residue"] == 0 for row in payload["rows"])

    def test_modp_natural_skips_shallow_primes(self):
        # p = 2 and 3 cannot invert the tie weight 1/3! of (1,1,1)
        rc, payload = run_json(["finite", "modp", "--natural", "--index", "(1,1,1)",
                                "--primes", "2..13"])
        assert rc == 0
        assert payload["rows"] == [{"prime": p, "residue": 0} for p in (5, 7, 11, 13)]

    def test_modp_shorthand_weight_two(self):
        # classical: the plain inverse-square sum vanishes for p >= 5
        rc, payload = run_json(["modp", "--index", "(2)",
                                "--primes", "5..20"])
        assert rc == 0
        assert [row["residue"] for row in payload["rows"]] == [0] * 6


class TestDsh:
    def test_dim_csv_table(self):
        rc, text = run(["--format", "csv", "dsh", "dim", "--n", "2",
                        "--d", "0..12"])
        assert rc == 0
        lines = text.strip().splitlines()
        assert lines[0] == "n,d,weight,dim"
        assert len(lines) == 14
        dims = {int(line.split(",")[1]): int(line.split(",")[3])
                for line in lines[1:]}
        assert dims[6] == 1 and dims[8] == 1 and dims[12] == 2
        assert dims[7] == 0

    def test_prop66_trivial_kernel(self):
        rc, payload = run_json(["dsh", "prop66", "--n", "2", "--d", "4"])
        assert rc == 0
        assert payload["kernel_dim"] == 0
        assert payload["pivot_orders_agree"] is True

    def test_prop66_constants_survive_degree_zero(self):
        rc, payload = run_json(["dsh", "prop66", "--n", "1", "--d", "0"])
        assert rc == 0
        assert payload["kernel_dim"] == 1
        assert payload["pivot_orders_agree"] is True
        assert payload["basis"] == ["MultiPoly(1, 1)"]

    @pytest.mark.parametrize("argv", [["prop66", "--n", "1", "--d", "0"],
                                      ["dim", "--n", "2", "--d", "10"]],
                             ids=["prop66", "dim"])
    def test_failed_exactness_check_is_reported(self, argv, monkeypatch, capsys):
        # a right pivot order that loses the kernel: the pivot orders
        # disagree, and the error is a message with nothing on stdout
        exact = dsh.nullspace
        monkeypatch.setattr(dsh, "nullspace", lambda rows, ncols, pivot_order: (
            exact(rows, ncols, pivot_order=pivot_order) if pivot_order == "left" else []))
        rc = main(["dsh"] + argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("mzv: error: pivot orders disagree")
        assert "Traceback" not in captured.err

    def test_groupring(self):
        rc, payload = run_json(["dsh", "groupring", "--n", "3"])
        assert rc == 0
        assert payload["identity_holds"] is True


class TestRelations:
    def test_main_single(self):
        rc, payload = run_json(["relations", "main", "--index", "(1,4)"])
        assert rc == 0
        report = payload["reports"][0]
        assert report["verdict"] == "confirmed"
        assert report["coefficients"] == {"z(2)*z(3)": "-2"}
        assert report["evidence"] == "numeric evidence"

    def test_denom_bound_flips_exit_code(self):
        rc, payload = run_json(["relations", "main", "--index", "(1,4)",
                                "--denom-bound", "1"])
        assert rc == 1
        assert payload["reports"][0]["verdict"] == "inconclusive"

    def test_sweep_csv(self):
        rc, text = run(["--format", "csv", "relations", "sweep",
                        "--max-weight", "4", "--max-depth", "3"])
        assert rc == 0
        lines = text.strip().splitlines()
        # (1,2),(2,1),(4,),(1,1,2),(1,2,1),(2,1,1)
        assert len(lines) == 7
        assert all("confirmed" in line for line in lines[1:])

    def test_contraction_exit_tracks_good_reading(self):
        rc, payload = run_json(["relations", "contraction",
                                "--index", "(2,2)"])
        assert rc == 0
        verdicts = {r["target"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["zeta_F(2,2) [weight_homogeneous]"] == "confirmed"
        assert verdicts["zeta_F(2,2) [as_displayed]"] == "inconclusive"

    def test_word_form(self):
        rc, payload = run_json(["relations", "word", "--index", "(2,3)"])
        assert rc == 0
        assert payload["reports"][0]["verdict"] == "confirmed"

    def test_health(self):
        rc, payload = run_json(["relations", "health"])
        assert rc == 0
        assert payload["reports"][0]["coefficients"] == {"z(2)*z(2)": "1/10"}

    def test_missing_index_is_usage_error(self):
        with pytest.raises(SystemExit):
            run(["relations", "main"])

    def test_empty_sweep(self):
        rc, text = run(["--format", "csv", "relations", "sweep",
                        "--max-weight", "1", "--max-depth", "1"])
        assert rc == 0
        assert text == ""


class TestCacheFlag:
    def test_file_cache_roundtrip(self, tmp_path):
        from mzvkit.numeric import configure_cache
        path = tmp_path / "values.jsonl"
        try:
            rc, a = run_json(["--cache", str(path), "eval", "--index", "(2)"])
            assert rc == 0
            assert path.exists()
            rc, b = run_json(["--cache", str(path), "eval", "--index", "(2)"])
            assert a["value"] == b["value"]
        finally:
            # the flag mutates the process-wide default; put it back
            configure_cache(None)

    def test_unusable_path_fails_before_any_value_is_computed(self, tmp_path, monkeypatch):
        from mzvkit import numeric
        calls = []

        def evaluate(*args):
            calls.append(args)
            raise RuntimeError("a value was computed")
        monkeypatch.setattr(numeric, "_evaluate", evaluate)
        try:
            rc, text = run(["--cache", str(tmp_path / "missing" / "v.jsonl"),
                            "--digits", "300", "eval", "--index", "1,2,2,3"])
        finally:
            numeric.configure_cache(None)
        assert (rc, text, calls) == (2, "", [])

    @pytest.mark.parametrize("where", ["missing/values.jsonl", "."],
                             ids=["in_missing_directory", "directory"])
    def test_unusable_path_is_an_error(self, tmp_path, capsys, where):
        # a path in a missing directory fails when the cache is configured,
        # a directory when it loads
        from mzvkit.numeric import configure_cache
        try:
            rc, text = run(["--cache", str(tmp_path / where), "eval", "--index", "(2)"])
        finally:
            configure_cache(None)
        assert rc == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("mzv: error: ")
