import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

PKG_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "comspect.cli", *args],
        capture_output=True,
        env=env,
        cwd=PKG_DIR,
    )


@pytest.fixture()
def diag_matrix(tmp_path):
    path = tmp_path / "diag3.json"
    doc = {
        "n": 3,
        "entries": [
            [1, 0], [0, 0], [0, 0],
            [0, 0], [3, 0], [0, 0],
            [0, 0], [0, 0], [0, -2],
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpectrum:
    def test_diagonal_example(self, diag_matrix):
        r = _run(["spectrum", "-i", diag_matrix])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["eigenvalues"] == [[3, 0], [0, -2], [1, 0]]
        assert doc["singularValues"] == [3, 2, 1]
        assert doc["schemaVersion"] == "1"

    def test_output_reparses(self, diag_matrix, tmp_path):
        out = tmp_path / "out.json"
        r = _run(["spectrum", "-i", diag_matrix, "-o", str(out)])
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 3


class TestFunctional:
    def test_report_fields(self, diag_matrix):
        r = _run(["functional", "-i", diag_matrix])
        doc = json.loads(r.stdout)
        assert doc["nu"] == 3
        assert doc["chi"] == [4, -2]
        assert doc["mu"] == pytest.approx(math.log(3) + math.log(2))
        # chiPhi within e*nu of chi
        dev = math.hypot(doc["chi"][0] - doc["chiPhi"][0], doc["chi"][1] - doc["chiPhi"][1])
        assert dev <= math.e * doc["nu"]

    def test_broken_invariant_is_numerical(self, diag_matrix, capsys, monkeypatch):
        import comspect.functionals as functionals
        from comspect import cli

        monkeypatch.setattr(functionals, "chi_phi", lambda eig, pair: 100j)
        assert cli.main(["functional", "-i", diag_matrix]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: smoothed threshold sum strays beyond e * nu\n"


class TestCutoffReport:
    def test_constants(self):
        r = _run(["cutoff-report", "--grid-size", "64"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["c1"] >= doc["psi1"] > 0
        assert doc["psiSlope"] == pytest.approx(doc["c1"])
        assert doc["minLaplacian"] >= -1e-5


class TestCriterion:
    def test_alternating_harmonic_out(self, tmp_path):
        path = tmp_path / "alt.json"
        path.write_text(json.dumps({"kind": "power", "c": 1.0, "a": 1.0, "alternating": True}))
        r = _run(["criterion", "-i", str(path), "--ideal", "schatten:p=1", "--prefix-length", "100000"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "NotInComJ"
        assert doc["condition2"]["status"] == "Out"
        assert doc["hermitianSplit"] is None

    def test_matrix_input_and_table(self, diag_matrix, tmp_path):
        table = tmp_path / "table.csv"
        r = _run([
            "criterion", "-i", diag_matrix, "--ideal", "schatten:p=2",
            "--emit-table", str(table), "--table-rows", "10",
        ])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "InComJ"
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "n,c_n,u_n"
        assert len(rows) == 11
        n1 = rows[1].split(",")
        assert float(n1[1]) <= float(n1[2]) + 1e-12

    def test_table_on_cancelling_values(self, tmp_path, capsys):
        # the total cancels, so the means beyond the list are 0 and the
        # witness, with no tail, dominates them
        from comspect import cli

        path = tmp_path / "cancel.json"
        path.write_text(json.dumps({"kind": "finite", "values": [1, -0.9999999999999999]}))
        table = tmp_path / "cu.csv"
        argv = ["criterion", "-i", str(path), "--ideal", "schatten:p=1", "--emit-table", str(table), "--table-rows", "6"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["condition3Witness"]["tail"] is None
        rows = [line.split(",") for line in table.read_text().strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(c_n) <= float(u_n) for _, c_n, u_n in rows)
        assert [float(c_n) for _, c_n, _ in rows[2:]] == [0.0] * 4

    def test_bad_ideal_string(self, diag_matrix):
        r = _run(["criterion", "-i", diag_matrix, "--ideal", "nuclear:p=1"])
        assert r.returncode == 2

    @pytest.mark.parametrize(
        ("ideal", "line"),
        [
            ("nuclear:p=1", "input error: unknown ideal family 'nuclear'"),
            ("schatten", "input error: cannot parse ideal spec 'schatten'"),
            ("custom:p=1", "input error: unknown ideal family 'custom'"),
            # p is the one key: another key, a repeated p or a trailing comma is refused
            ("schatten:p=1,q=7", "input error: cannot parse ideal spec 'schatten:p=1,q=7'"),
            ("schatten:q=7,p=1", "input error: cannot parse ideal spec 'schatten:q=7,p=1'"),
            ("weaklp:p=1,p=2", "input error: cannot parse ideal spec 'weaklp:p=1,p=2'"),
            ("schatten:p=1,", "input error: cannot parse ideal spec 'schatten:p=1,'"),
            # p is a plain decimal: no underscores, spaces, signs, inf or nan
            ("schatten:p=1_0", "input error: cannot parse ideal spec 'schatten:p=1_0'"),
            ("schatten:p= 2 ", "input error: cannot parse ideal spec 'schatten:p= 2 '"),
            ("schatten:p=+1", "input error: cannot parse ideal spec 'schatten:p=+1'"),
            ("schatten:p=inf", "input error: cannot parse ideal spec 'schatten:p=inf'"),
            ("weaklp:p=nan", "input error: cannot parse ideal spec 'weaklp:p=nan'"),
            ("schatten:p=1e999", "input error: schatten requires finite p > 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["criterion", "stability"])
    def test_bad_ideal_message(self, tmp_path, capsys, command, ideal, line):
        from comspect import cli

        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kind": "finite", "values": [1.0]}))
        assert cli.main([command, "-i", str(path), "--ideal", ideal]) == 2
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""

    def test_law_table_shows_the_document_witness(self, tmp_path, capsys):
        # the table's u_n is the witness the document summarises, built from
        # the law's first 2000 terms, whatever --table-rows asks for
        from comspect import cli

        path = tmp_path / "law.json"
        path.write_text(json.dumps({"kind": "power", "c": 1, "a": 0.5, "alternating": True}))
        table = tmp_path / "cu.csv"
        argv = ["criterion", "-i", str(path), "--ideal", "schatten:p=2", "--table-rows", "16",
                "--prefix-length", "10000", "--emit-table", str(table)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["witnessScale"] == 2000
        rows = [line.split(",") for line in table.read_text().strip().splitlines()[1:]]
        assert [float(u_n) for _, _, u_n in rows] == doc["condition3Witness"]["head"]

    @pytest.mark.parametrize(
        ("doc", "digest"),
        [
            (
                {"n": 4, "entries": [
                    [2, 1], [0.5, 0], [0, -1], [0.25, 0.25],
                    [0, 0], [-1.5, 0.5], [1, 0], [0, 0],
                    [0.3, 0], [0, 0], [0.75, -0.5], [1, 1],
                    [0, 0.2], [0.1, 0], [0, 0], [-0.4, 0]]},
                "60a36fd4f4946a73f3a5a9d4d3ab86da3c6a5402730eadd71fe2097604f79535",
            ),
            (
                {"kind": "finite", "values": [3, [-1, 2], -2.5, 0.75, [0.1, -0.3]]},
                "b85c44131e4d904fe9fbe3b1af3bf0f868e505123f73183f6819bf1f21e992ed",
            ),
        ],
        ids=["matrix", "finite"],
    )
    def test_table_bytes_pinned(self, tmp_path, capsys, doc, digest):
        # matrix and finite-list tables run past the list into the exact tail
        import hashlib

        from comspect import cli

        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        table = tmp_path / "cu.csv"
        argv = ["criterion", "-i", str(path), "--ideal", "schatten:p=2", "--emit-table", str(table), "--table-rows", "12"]
        assert cli.main(argv) == 0
        assert hashlib.sha256(table.read_bytes()).hexdigest() == digest


    @pytest.mark.parametrize(
        ("a", "digest"),
        [
            (0.5, "b30510b5bb2b8a2114593b4f34474527f19dd844004beeb8cc390612825f3c74"),
            (1.0, "a2b62e391e14c58425a3a2dff4b619659de7dcf3d3e5fca106fc458b565035b6"),
        ],
        ids=["a0.5", "a1"],
    )
    def test_alternating_law_document_pinned(self, tmp_path, capsys, a, digest):
        # the 10^6-term Cesàro prefix of an alternating law
        import hashlib

        from comspect import cli

        path = tmp_path / "law.json"
        path.write_text(json.dumps({"kind": "power", "c": 1.0, "a": a, "alternating": True}))
        assert cli.main(["criterion", "-i", str(path), "--ideal", "schatten:p=1"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestStability:
    def test_power_law_report(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "power", "c": 1.0, "a": 2.0}))
        r = _run(["stability", "-i", str(path), "--ideal", "schatten:p=1", "--n-max", "2000"])
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["inputVerdict"]["status"] == "In"
        assert doc["meanVerdict"]["status"] == "In"
        assert doc["chainHolds"] is True
        assert doc["empiricalConstant"] <= doc["proofConstant"]

    @pytest.mark.parametrize("ideal", ["schatten:p=0.5", "weaklp:p=0.3"])
    def test_non_member_gets_a_report(self, tmp_path, ideal):
        # sum n^-1 diverges and sup n^(1/0.3) n^-2 is infinite: a verdict, not an input error
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "power", "c": 1, "a": 2}))
        r = _run(["stability", "-i", str(path), "--ideal", ideal])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["inputVerdict"]["status"] == "Out"
        assert doc["meanVerdict"]["status"] == "Out"
        assert doc["chainHolds"] is True

    def test_table(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "geometric", "c": 1.0, "q": 0.5}))
        table = tmp_path / "stab.csv"
        r = _run([
            "stability", "-i", str(path), "--ideal", "schatten:p=1",
            "--n-max", "500", "--emit-table", str(table), "--table-rows", "8",
        ])
        assert r.returncode == 0
        rows = table.read_text().strip().splitlines()
        assert rows[0] == "n,s_n,t_n,u_n"
        assert len(rows) == 9

    @pytest.mark.parametrize(
        ("doc", "ideal", "digest"),
        [
            (
                {"kind": "power", "c": 1, "a": 3},
                "schatten:p=0.5",
                "46e8200fb2c07215bc1e3b6c23088e304dbed3ad5440386202fb34861f01fe50",
            ),
            (
                {"kind": "geometric", "c": 1, "q": 0.5},
                "weaklp:p=2",
                "3bb12ecdb81537301145168d82ba5886554bea4f1d8d6e1d79780e3eef09a868",
            ),
            (
                {"kind": "finite", "values": [4, 3, 2, 1, 0.5]},
                "schatten:p=1",
                "4088acef5637af5ae4ec24afc820ab17c9f0746bd12510344fa95d1b2b976b83",
            ),
            (  # q**m is +0 from m = 249 on; GeometricTail.value_at calls pow up to m = 254
                {"kind": "geometric", "c": 1, "q": 0.05},
                "schatten:p=1",
                "90a63c28e02921379c87815f0c5422e3eb7128467721fbf62d456419b5bb6481",
            ),
        ],
        ids=["power", "geometric", "finite", "geometric-q0.05"],
    )
    def test_document_bytes_pinned(self, tmp_path, capsys, doc, ideal, digest):
        # the default n = 10^5 scan, through the dyadic envelope
        import hashlib

        from comspect import cli

        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["stability", "-i", str(path), "--ideal", ideal]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestParserReuse:
    def test_built_once(self):
        from comspect import cli

        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_then_valid_call_match_separate_processes(self, tmp_path, capsys, monkeypatch):
        from comspect import cli

        monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping in and out of process
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "power", "c": 1, "a": 2}))
        bad = ["stability", "-i", str(path), "--ideal", "schatten:p=1", "--n-max", "0"]
        good = ["stability", "-i", str(path), "--ideal", "schatten:p=1", "--n-max", "2000"]
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        bad_in = capsys.readouterr()
        assert cli.main(good) == 0
        good_in = capsys.readouterr()
        for argv, code, captured in ((bad, 2, bad_in), (good, 0, good_in)):
            r = _run(argv)
            assert r.returncode == code
            assert (captured.out.encode(), captured.err.encode()) == (r.stdout, r.stderr)
        assert bad_in.err.startswith("usage: comspect stability")


class TestCountOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--ideal", "schatten:p=1", "--n-max", "0"],
            ["stability", "--ideal", "schatten:p=1", "--n-max", "-1"],
            ["stability", "--ideal", "schatten:p=1", "--table-rows", "0"],
            ["criterion", "--ideal", "schatten:p=1", "--table-rows", "-3"],
            ["criterion", "--ideal", "schatten:p=1", "--prefix-length", "-5"],
            ["criterion", "--ideal", "schatten:p=1", "--prefix-length", "ten"],
        ],
        ids=["n-max-0", "n-max-neg", "stability-rows-0", "criterion-rows-neg", "prefix-neg", "prefix-text"],
    )
    def test_nonpositive_counts_are_usage_errors(self, tmp_path, capsys, argv):
        from comspect import cli

        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "-i", str(tmp_path / "unread.json"), *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {argv[-2]}" in err


class TestVerifyTolerance:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_rejected(self, capsys, value):
        from comspect import cli

        assert cli.main(["verify", "--suite", "lemma2_5_control", "--trials", "200", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"input error: tolerance must be finite and nonnegative, got {value}"


class TestExitCodes:
    def test_malformed_json_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        r = _run(["spectrum", "-i", str(path)])
        assert r.returncode == 2
        assert b"line 1" in r.stderr

    def test_schema_violation_is_two(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 0]]}))
        r = _run(["spectrum", "-i", str(path)])
        assert r.returncode == 2
        assert b"entries" in r.stderr

    def test_verify_violations_exit_one(self):
        r = _run(["verify", "--suite", "lemma2_2_control", "--trials", "50", "--seed", "1"])
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["passed"] is False

    def test_verify_pass_exit_zero(self):
        r = _run(["verify", "--suite", "lemma2_2", "--trials", "50", "--seed", "1"])
        assert r.returncode == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["criterion", "stability"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"kind": "finite", "values": [NaN, 1]}', b"values[0] must be finite"),
            ('{"kind": "finite", "values": [2, -Infinity]}', b"values[1] must be finite"),
            ('{"kind": "power", "c": NaN, "a": 2}', b"field 'c' must be finite"),
            ('{"kind": "geometric", "c": 1, "q": Infinity}', b"field 'q' must be finite"),
            ('{"kind": "power", "c": 1' + "0" * 400 + ', "a": 2}', b"field 'c' must be finite"),
            ('{"kind": "finite", "values": [true, false]}', b"values[0] holds non-numeric data"),
            ('{"kind": "finite", "values": [2, "1"]}', b"values[1] holds non-numeric data"),
            ('{"kind": "power", "c": true, "a": 2}', b"field 'c' holds non-numeric data"),
            ('{"kind": "geometric", "c": 1, "q": "0.5"}', b"field 'q' holds non-numeric data"),
        ],
        ids=[
            "nan-value", "minus-inf-value", "nan-c", "inf-q", "int-beyond-float-c",
            "bool-values", "string-value", "bool-c", "string-q",
        ],
    )
    def test_field_diagnostic(self, tmp_path, command, doc, message):
        path = tmp_path / "seq.json"
        path.write_text(doc)
        r = _run([command, "-i", str(path), "--ideal", "schatten:p=1"])
        assert r.returncode == 2
        assert message in r.stderr

    @pytest.mark.parametrize(
        "values, message",
        [("[[1, 0], [0, NaN]]", b"values[1] must be finite"), ("[[null, 0]]", b"values[0] holds non-numeric data")],
    )
    def test_eigenvalue_pair(self, tmp_path, values, message):
        path = tmp_path / "eig.json"
        path.write_text('{"kind": "finite", "values": %s}' % values)
        r = _run(["criterion", "-i", str(path), "--ideal", "schatten:p=1"])
        assert r.returncode == 2
        assert message in r.stderr

    @pytest.mark.parametrize("command", [["spectrum"], ["criterion", "--ideal", "schatten:p=1"]], ids=["spectrum", "criterion"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"n": 1, "entries": [["2", true]]}', b"entries[0] holds non-numeric data"),
            ('{"n": 1, "entries": [[1, false]]}', b"entries[0] holds non-numeric data"),
            ('{"n": 2, "entries": [[1, 0], [0, 0], [NaN, 0], [1, 0]]}', b"entries[2] must be finite"),
            ('{"n": true, "entries": [[1, 0]]}', b"field 'n' must be a positive integer"),
        ],
        ids=["string-and-bool", "bool-imag", "nan", "bool-n"],
    )
    def test_matrix_entries(self, tmp_path, command, doc, message):
        path = tmp_path / "m.json"
        path.write_text(doc)
        r = _run([command[0], "-i", str(path), *command[1:]])
        assert r.returncode == 2
        assert message in r.stderr

    @pytest.mark.parametrize("flag", ['"no"', "1", "null"])
    def test_alternating_must_be_boolean(self, tmp_path, flag):
        path = tmp_path / "law.json"
        path.write_text('{"kind": "power", "c": 1, "a": 2, "alternating": %s}' % flag)
        r = _run(["criterion", "-i", str(path), "--ideal", "schatten:p=1"])
        assert r.returncode == 2
        assert b"field 'alternating' must be true or false" in r.stderr


class TestWarningFreeProbes:
    """Inputs whose numerics leaked numpy RuntimeWarnings keep their outcome
    (the perfbench catalogue's exit code and error line) without warnings."""

    @pytest.mark.parametrize(
        "doc, code, error",
        [
            ({"kind": "finite", "values": [1e308, 1e308]}, 2, "input error: prefix entries must be finite and nonnegative"),
            (
                {"kind": "geometric", "c": 1.0, "q": 0.5, "alternating": True},
                3,
                "numerical failure: tail breakpoint enumeration exceeded its cap",
            ),
            (
                {"kind": "finite", "values": [1e-308]},
                3,
                "numerical failure: tail breakpoint enumeration exceeded its cap",
            ),
            (
                {"kind": "finite", "values": [1e-308, -9.9999999999e-309]},
                3,
                "numerical failure: the alpha scan's closing scale 2*max(1/min modulus, alpha_star, 1) "
                "overflows the float range",
            ),
        ],
        ids=["1e308-pair", "geometric-alt", "subnormal-tail", "closing-scale-overflow"],
    )
    def test_no_runtime_warnings(self, tmp_path, capsys, doc, code, error):
        self._assert_quiet(tmp_path, capsys, ["criterion", "--ideal", "schatten:p=1"], doc, code, error)

    def test_cancelling_pair_document_pinned(self, tmp_path, capsys):
        # alpha_cap doubles to inf and the last interval's |S| is 0: the
        # left side there is 0, not inf * 0
        import hashlib

        doc = {"kind": "finite", "values": [1e-308, -1e-308]}
        out = self._assert_quiet(tmp_path, capsys, ["criterion", "--ideal", "schatten:p=1"], doc, 0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "072472d73618844fb74657cae967e0b93982dcb3e9f471f3d16888af9bc23c90"
        )

    # a finite matrix whose eigenvalues, singular values or hermitian parts
    # leave the float range
    EIG_OVERFLOW = {"n": 2, "entries": [[1e308, 0]] * 4}
    SVD_OVERFLOW = {"n": 2, "entries": [[1.5e308, 0], [1.5e308, 0], [0, 0], [0, 0]]}
    SPLIT_OVERFLOW = {"n": 2, "entries": [[0, 0], [1e308, 0], [1e308, 0], [0, 0]]}

    @pytest.mark.parametrize(
        "args, doc, what",
        [
            (["spectrum"], EIG_OVERFLOW, "eigenvalues"),
            (["functional"], EIG_OVERFLOW, "eigenvalues"),
            (["criterion", "--ideal", "schatten:p=1"], EIG_OVERFLOW, "eigenvalues"),
            (["spectrum"], SVD_OVERFLOW, "singular values"),
            (["criterion", "--ideal", "schatten:p=1"], SPLIT_OVERFLOW, "hermitian part H"),
        ],
        ids=["spectrum-eig", "functional-eig", "criterion-eig", "spectrum-svd", "criterion-split"],
    )
    def test_matrix_overflow_is_numerical(self, tmp_path, capsys, args, doc, what):
        line = f"numerical failure: the {what} of a finite matrix overflowed the float range"
        self._assert_quiet(tmp_path, capsys, args, doc, 3, line)

    @staticmethod
    def _assert_quiet(tmp_path, capsys, args, doc, code, error) -> str:
        """Run the command in-process; check its exit code, its stderr line
        and that no warning escaped.  Returns stdout."""
        import warnings

        from comspect import cli

        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([args[0], "-i", str(path), *args[1:]]) == code
        out, err = capsys.readouterr()
        assert err.strip() == error
        assert [str(w.message) for w in caught] == []
        return out


class TestOverflowingPowerSums:
    """A p-th power sum past the float range is a numerical failure (exit 3),
    not an OverflowError traceback or an inf read as divergence."""

    LINE = "numerical failure: the p-th power sum of a sequence overflows the float range"

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("criterion", {"kind": "finite", "values": [1e300]}),
            ("stability", {"kind": "geometric", "c": 1e300, "q": 0.5}),
            ("stability", {"kind": "power", "c": 1e300, "a": 2}),
            ("stability", {"kind": "finite", "values": [1e300]}),  # was an Out verdict
        ],
        ids=["criterion-finite", "stability-geometric", "stability-power", "stability-finite"],
    )
    def test_exits_three(self, tmp_path, capsys, command, doc):
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, [command, "--ideal", "schatten:p=2"], doc, 3, self.LINE)


class TestOneLineExits:
    """Inputs that exited 0 or 2 on a RuntimeWarning, or whose "alternating"
    flag was ignored, exit with one line naming the failure or the field."""

    POWER_SUM = "numerical failure: the p-th power sum of a sequence overflows the float range"
    NOT_A_LAW = "input error: field 'alternating' must be false for a matrix or a finite list"
    P1 = ["criterion", "--ideal", "schatten:p=1"]
    P2 = ["criterion", "--ideal", "schatten:p=2"]

    @pytest.mark.parametrize(
        "args, doc, code, line",
        [
            (
                ["stability", "--ideal", "schatten:p=1"],
                {"kind": "finite", "values": [1.5e308]},
                3,
                "numerical failure: the dyadic series envelope of a sequence overflows the float range",
            ),
            # the total cancels, so the sum has no tail; it was "inf" beside status In
            (P2, {"kind": "finite", "values": [[1e300, 0], [-1e300, 0]]}, 3, POWER_SUM),
            (P2, {"kind": "finite", "values": [1e308, 1e308]}, 3, POWER_SUM),
            (P1, {"kind": "finite", "values": [1, 0.5], "alternating": True}, 2, NOT_A_LAW),
            (P1, {"n": 1, "entries": [[1, 0]], "alternating": "no"}, 2, NOT_A_LAW),
            (P1, {"n": 1, "entries": [[1, 0]], "alternating": True}, 2, NOT_A_LAW),
        ],
        ids=["stability-envelope", "cancelling-pair-p2", "1e308-pair-p2", "finite-alternating", "matrix-no", "matrix-true"],
    )
    def test_exit_line(self, tmp_path, capsys, args, doc, code, line):
        assert TestWarningFreeProbes._assert_quiet(tmp_path, capsys, args, doc, code, line) == ""

    @pytest.mark.parametrize(
        "doc", [{"kind": "finite", "values": [1, 0.5]}, {"n": 1, "entries": [[2, 0]]}], ids=["finite", "matrix"]
    )
    def test_alternating_false_is_absent(self, tmp_path, capsys, doc):
        plain = TestWarningFreeProbes._assert_quiet(tmp_path, capsys, self.P1, doc, 0, "")
        assert TestWarningFreeProbes._assert_quiet(tmp_path, capsys, self.P1, {**doc, "alternating": False}, 0, "") == plain


class TestFactorialMajorantOverflow:
    """stability of a power law with a > ~709: e^a in the majorant of the
    geometric means' tail passes the float range, while their p-th power sum
    is about 1.  The tail bound is then taken in logs."""

    @pytest.mark.parametrize("ideal", ["schatten:p=0.5", "schatten:p=2", "weaklp:p=2"])
    def test_gets_a_verdict(self, tmp_path, capsys, ideal):
        doc = {"kind": "power", "c": 1, "a": 800}
        out = TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", ideal], doc, 0, "")
        report = json.loads(out)
        assert report["inputVerdict"]["status"] == report["meanVerdict"]["status"] == "In"
        assert report["chainHolds"]


class TestStabilityAtSmallP:
    """stability with p near 0, where theta = 2/min(p, 1) and the weak-lp
    weights n^(1/p) leave the float range: one documented exit-3 line or a
    finite verdict, never a traceback, a warning or an overflow read as Out."""

    CHAIN = "numerical failure: the chain constant (2e)^theta, theta = 2/min(p, 1), overflows the float range"
    WEAK = "numerical failure: the weak-lp supremum of a sequence overflows the float range"

    @pytest.mark.parametrize(
        "ideal, doc, line",
        [
            ("schatten:p=0.0047", {"kind": "geometric", "c": 1, "q": 0.5}, CHAIN),
            ("weaklp:p=0.0047", {"kind": "finite", "values": [1.0]}, CHAIN),
            ("weaklp:p=0.005", {"kind": "geometric", "c": 1, "q": 0.5}, WEAK),  # was an OverflowError
            # a finite list is in every weak-lp ideal: this read "inf" and Out
            ("weaklp:p=0.005", {"kind": "finite", "values": [1.0 / n for n in range(1, 1001)]}, WEAK),
        ],
        ids=["schatten-theta", "weaklp-theta", "weaklp-geometric", "weaklp-finite"],
    )
    def test_exits_three(self, tmp_path, capsys, ideal, doc, line):
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", ideal], doc, 3, line)

    def test_factorial_supremum_is_finite(self, tmp_path, capsys):
        # n^200 overflows where the geometric means have underflowed to 0:
        # inf * 0 read as weak_sup 0, below t_1 = 1; the supremum is at n = 3
        doc = {"kind": "power", "c": 1, "a": 300}
        out = TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", "weaklp:p=0.005"], doc, 0, "")
        mean = json.loads(out)["meanVerdict"]
        assert mean["status"] == "In"
        assert mean["evidence"]["weak_sup"] == pytest.approx(3**200 * math.factorial(3) ** -100, rel=1e-12)

    def test_chain_bound_past_the_float_range(self, tmp_path, capsys):
        # the bound 2^40 n^40 (n!)^(-40/n) u_n passes the float range for
        # c = 1e300: the margin (t_n - B)/(B + 1) is -1 there
        from comspect.ideals import IdealSpec, check_geometric_stability
        from comspect.sequences import ScalarSequence

        doc = {"kind": "geometric", "c": 1e300, "q": 0.5}
        out = TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", "schatten:p=0.05"], doc, 0, "")
        report = json.loads(out)
        assert report["chainHolds"] and report["worstChainMargin"] == -1
        # the only position's bound overflows
        only = check_geometric_stability(ScalarSequence.finite([1e300]), IdealSpec.schatten(0.05), n_max=1)
        assert only.chain_holds and only.worst_chain_margin == -1.0

    def test_threshold_is_the_float_range_of_the_constant(self):
        # (2e)^theta is finite up to theta = log(max float)/log(2e), p ~ 0.004772
        from comspect.errors import NumericalError
        from comspect.ideals import IdealSpec, check_geometric_stability
        from comspect.sequences import ScalarSequence

        edge = 2.0 * math.log(2.0 * math.e) / math.log(sys.float_info.max)
        s = ScalarSequence.finite([1.0])
        report = check_geometric_stability(s, IdealSpec.schatten(edge * (1 + 1e-9)), n_max=64)
        assert math.isfinite(report.proof_constant)
        with pytest.raises(NumericalError, match="chain constant"):
            check_geometric_stability(s, IdealSpec.schatten(edge * (1 - 1e-9)), n_max=64)


class TestSequenceSchemaLines:
    """The sequence constructors' checks surface as exit-2 input errors."""

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({"kind": "finite", "values": [1, 2]}, "input error: prefix must be nonincreasing"),
            ({"kind": "power", "c": -1, "a": 1}, "input error: power tail requires c > 0 and a > 0"),
            ({"kind": "geometric", "c": 1, "q": 1.5}, "input error: geometric tail requires c > 0 and 0 < q < 1"),
        ],
        ids=["finite-rising", "power-c", "geometric-q"],
    )
    def test_stability_input_errors(self, tmp_path, capsys, doc, line):
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", "schatten:p=1"], doc, 2, line)

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({"kind": "power", "c": -1, "a": 1}, "input error: power tail requires c > 0 and a > 0"),
            ({"kind": "power", "c": 1, "a": 0, "alternating": True}, "input error: power tail requires c > 0 and a > 0"),
            ({"kind": "geometric", "c": 1, "q": 1.5}, "input error: geometric tail requires c > 0 and 0 < q < 1"),
        ],
        ids=["power-c", "power-a-alt", "geometric-q"],
    )
    def test_criterion_law_errors(self, tmp_path, capsys, doc, line):
        # a decay law is built from its tail, so criterion and stability print the same line
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["criterion", "--ideal", "schatten:p=1"], doc, 2, line)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "power", "c": 1, "a": 2, "alternating": True},
            {"kind": "geometric", "c": 1, "q": 0.5, "alternating": True},
            {"kind": "finite", "values": [2, 1], "alternating": True},
            {"kind": "power", "c": 1, "a": 2, "alternating": 1},
        ],
        ids=["power", "geometric", "finite", "power-int-flag"],
    )
    def test_stability_refuses_alternating(self, tmp_path, capsys, doc):
        line = "input error: field 'alternating' must be false for a nonnegative sequence"
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["stability", "--ideal", "schatten:p=1"], doc, 2, line)

    def test_stability_accepts_alternating_false(self, tmp_path, capsys):
        args = ["stability", "--ideal", "schatten:p=1", "--n-max", "2000"]
        law = {"kind": "power", "c": 1, "a": 2}
        plain = TestWarningFreeProbes._assert_quiet(tmp_path, capsys, args, law, 0, "")
        assert TestWarningFreeProbes._assert_quiet(tmp_path, capsys, args, {**law, "alternating": False}, 0, "") == plain


class TestWeakLpLawCells:
    """weak-lp `criterion` on symbolic laws at the default 10^6-term prefix.

    Condition (2) is one sort of the Cesàro prefix plus one batched tail
    count, so each cell finishes in about a second.  The cells marked
    `cap` get past condition (2) and stop at the witness scan's breakpoint
    cap until the large-alpha regime is closed analytically; they keep that
    exit-3 line until then."""

    CAP_LINE = "numerical failure: tail breakpoint enumeration exceeded its cap"
    CELLS = [
        (doc, f"weaklp:p={p}", code)
        for law, code in [
            ({"kind": "power", "c": 1, "a": 1.5}, 0),
            ({"kind": "power", "c": 1, "a": 3}, 3),  # cap
            ({"kind": "geometric", "c": 1, "q": 0.5}, 3),  # cap
        ]
        for doc in (law, {**law, "alternating": True})
        for p in (1, 2)
    ] + [({"kind": "power", "c": 1, "a": 0.5}, "weaklp:p=2", 0)]

    @pytest.mark.parametrize(
        "doc, ideal, code",
        CELLS,
        ids=[
            f"{d['kind']}-{d.get('a', d.get('q'))}{'-alt' if d.get('alternating') else ''}-{i}"
            for d, i, _ in CELLS
        ],
    )
    def test_finishes_within_budget(self, tmp_path, capsys, doc, ideal, code):
        import time

        start = time.perf_counter()
        out = TestWarningFreeProbes._assert_quiet(
            tmp_path, capsys, ["criterion", "--ideal", ideal], doc, code, self.CAP_LINE if code else ""
        )
        assert time.perf_counter() - start < 3.0
        if code == 0:
            assert json.loads(out)["condition2"]["status"] == "In"

    @pytest.mark.parametrize("ideal", ["schatten:p=1", "weaklp:p=1"])
    def test_underflowing_partial_sum_limit_is_numerical(self, tmp_path, capsys, ideal):
        # c * q / (1 - q) rounds to 0: a valid law whose limit cannot be
        # represented, not a cancelling total with finite support
        doc = {"kind": "geometric", "c": 5e-324, "q": 0.5}
        line = "numerical failure: the partial-sum limit of the eigenvalue law underflows to 0"
        TestWarningFreeProbes._assert_quiet(tmp_path, capsys, ["criterion", "--ideal", ideal], doc, 3, line)


# Runs `python -m comspect.cli <args>` in-process and reports, as the last
# line of stderr, which numerics packages got imported and the value of
# OPENBLAS_NUM_THREADS at numpy's first import.
_IMPORT_PROBE = """
import json, os, runpy, sys

class NumpyWatch:
    blas = "numpy never imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpyWatch.blas == "numpy never imported":
            NumpyWatch.blas = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, NumpyWatch())
try:
    runpy.run_module("comspect.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = [m for m in ("numpy", "scipy", "mpmath") if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded, "blas": NumpyWatch.blas}), file=sys.stderr)
"""


def _probe_cli(args):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["COMSPECT_THREADS"] = "1"
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args], capture_output=True, env=env, cwd=PKG_DIR
    )
    return json.loads(r.stderr.decode().strip().splitlines()[-1])


class TestImportGraph:
    @pytest.mark.parametrize("stmt", ["import comspect", "import comspect.cli"])
    def test_package_import_loads_no_numerics(self, stmt):
        code = f"{stmt}; import sys; print([m for m in ('numpy', 'scipy', 'mpmath') if m in sys.modules])"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=PKG_DIR)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == b"[]"

    def test_sequence_modules_load_no_scipy(self):
        # gammaln and the Hurwitz zeta are in-module ports
        code = "import sys, comspect.ideals, comspect.sequences; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=PKG_DIR)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == b"[]"

    def test_verify_list_skips_scipy_and_mpmath(self):
        report = _probe_cli(["verify", "--suite", "weyl", "--list"])
        assert report["code"] == 0
        assert "scipy" not in report["loaded"] and "mpmath" not in report["loaded"]

    def test_spectrum_skips_scipy_and_mpmath_and_caps_threads_first(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [2, 0], [0, 0], [3, 0]]}))
        report = _probe_cli(["spectrum", "-i", str(path)])
        assert report["code"] == 0
        assert report["loaded"] == ["numpy"]
        assert report["blas"] == "1"

    @pytest.mark.parametrize(
        "args",
        [
            ["functional", "-i", "MATRIX"],
            ["cutoff-report", "--grid-size", "16"],
            ["verify", "--suite", "lemma2_1_3", "--trials", "1"],
        ],
    )
    def test_cutoff_pair_commands_load_numpy_only(self, tmp_path, args):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1, 0], [2, 0], [0, 0], [3, 0]]}))
        report = _probe_cli([str(path) if a == "MATRIX" else a for a in args])
        assert report["code"] == 0
        assert report["loaded"] == ["numpy"]

    @pytest.mark.parametrize(
        "args",
        [
            ["criterion", "-i", '{"kind": "finite", "values": [1, 0.5]}', "--ideal", "schatten:p=1"],
            ["criterion", "-i", '{"kind": "power", "c": 1, "a": 0.5, "alternating": true}', "--ideal", "schatten:p=1"],
            ["stability", "-i", '{"kind": "power", "c": 1, "a": 3}', "--ideal", "schatten:p=0.5"],
            ["verify", "--suite", "prop3_2", "--trials", "1"],
        ],
    )
    def test_tail_law_commands_load_numpy_only(self, tmp_path, args):
        # the harmonic witness of criterion, the geometric means and Schatten sums
        # of stability and prop3_2 need log-gamma and the Hurwitz zeta, and an
        # alternating law's partial-sum limit needs eta(a)
        doc = next((a for a in args if a.startswith("{")), None)
        if doc is not None:
            path = tmp_path / "in.json"
            path.write_text(doc)
            args = [str(path) if a == doc else a for a in args]
        report = _probe_cli(args)
        assert report["code"] == 0
        assert report["loaded"] == ["numpy"]

    def test_default_cutoff_pair_imports_no_scipy_or_mpmath(self):
        code = (
            "import sys; from comspect.cutoffs import default_cutoff_pair; default_cutoff_pair(); "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')])"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=PKG_DIR)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == b"[]"

    def test_package_imports_numpy_and_the_standard_library_only(self):
        # numpy is the one runtime dependency: scipy and mpmath are test oracles
        import ast
        import pathlib

        import comspect

        allowed = set(sys.stdlib_module_names) | {"numpy", "comspect"}
        found = []
        for source in sorted(pathlib.Path(comspect.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: the package
                    names = [node.module]
                else:
                    continue
                found += [(source.name, name) for name in names if name.split(".")[0] not in allowed]
        assert found == []

    def test_every_export_resolves(self):
        import importlib

        import comspect

        assert set(comspect.__all__) <= set(dir(comspect))
        for name in comspect.__all__:
            exec(f"from comspect import {name}", {})
            owner = importlib.import_module(getattr(comspect, name).__module__)
            assert getattr(owner, name) is getattr(comspect, name)
        with pytest.raises(ImportError):
            exec("from comspect import no_such_name", {})
        with pytest.raises(AttributeError):
            comspect.pencil

    def test_every_export_is_used_in_the_package(self):
        # each name in a module's __all__ is loaded somewhere in the package
        # outside its own definition; the lazy table in __init__ does not count
        import ast
        import pathlib

        import comspect

        exported, used = {}, set()
        for path in sorted(pathlib.Path(comspect.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]:
                    exported.update(dict.fromkeys(ast.literal_eval(stmt.value), path.stem))
                    continue
                own = getattr(stmt, "name", None)
                used |= {
                    node.id
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
                }
        assert sorted(f"{module}.{name}" for name, module in exported.items() if name not in used) == []


    def test_every_traced_name_resolves(self):
        # the benchmark's tracer (perfbench/shim.py) wraps each name of its
        # FUNCTIONS and METHODS tables through getattr: a missing one breaks
        # its traced runs.  The tables are read as source, not imported.
        import ast
        import importlib
        import pathlib

        tables = {}
        shim = pathlib.Path(PKG_DIR, "perfbench", "shim.py")
        for stmt in ast.parse(shim.read_text(encoding="utf-8")).body:
            names = [getattr(t, "id", None) for t in getattr(stmt, "targets", [])]
            if names in (["FUNCTIONS"], ["METHODS"]):
                tables[names[0]] = ast.literal_eval(stmt.value)
        assert sorted(tables) == ["FUNCTIONS", "METHODS"]
        for module, attr in tables["FUNCTIONS"]:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
        for module, cls, attr in tables["METHODS"]:
            assert callable(vars(getattr(importlib.import_module(module), cls)).get(attr)), (module, cls, attr)


class TestDeterminism:
    def test_verify_bytes_stable(self):
        args = ["verify", "--suite", "lemma2_3", "--trials", "80", "--seed", "7"]
        a, b = _run(args), _run(args)
        assert a.stdout == b.stdout and a.stdout

    def test_stable_across_thread_settings(self, diag_matrix):
        args = ["verify", "--suite", "thm2_7", "--trials", "60", "--seed", "3"]
        one = _run(args, {"COMSPECT_THREADS": "1"})
        four = _run(args, {"COMSPECT_THREADS": "4", "OPENBLAS_NUM_THREADS": "4"})
        assert one.stdout == four.stdout
        s_one = _run(["spectrum", "-i", diag_matrix], {"COMSPECT_THREADS": "1"})
        s_four = _run(["spectrum", "-i", diag_matrix], {"COMSPECT_THREADS": "4"})
        assert s_one.stdout == s_four.stdout
        # circle means: one stacked LAPACK call per block of nodes
        circle = ["verify", "--suite", "lemma2_1_3", "--trials", "3", "--seed", "1"]
        c_one = _run(circle, {"COMSPECT_THREADS": "1"})
        c_four = _run(circle, {"COMSPECT_THREADS": "4"})
        assert c_one.returncode == 0 and c_one.stdout == c_four.stdout

    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        doc = {"n": 4, "entries": [[z.real, z.imag] for z in m.ravel()]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        r = _run(["spectrum", "-i", str(path)])
        out = json.loads(r.stdout)
        eig = np.array([complex(a, b) for a, b in out["eigenvalues"]])
        direct = np.linalg.eigvals(m)
        assert np.allclose(np.sort_complex(eig), np.sort_complex(direct), atol=1e-12)
