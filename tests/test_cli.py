import argparse
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import milnorq
from milnorq import algebra, chern, invariants, torus
from milnorq.cli import build_parser, main

SRC = str(Path(milnorq.__file__).resolve().parent.parent)



def regular_weights(p, n, a, changed=()):
    """A weights file: every weight of V_n a times, those of changed as given."""
    changed = dict(changed)
    return "".join(
        f"{','.join(map(str, v))} x{changed.get(v, a)}\n"
        for v in itertools.product(range(p), repeat=n)
    )


# inputs whose work grows past the desk scale: 6^8 Chern terms, c(reg)
# times 79 linear factors at (3,4), and C(303, 3) partial terms of P^300
GROWING = {
    "chern-rep-x6560": (["chern-rep", "-p", "3", "-n", "2"], "1,1 x6560\n"),
    "mu-x6560": (["mu", "-p", "3", "-n", "2"], "1,1 x6560\n"),
    "chern-rep-2reg-minus-one": (
        ["chern-rep", "-p", "3", "-n", "4"],
        regular_weights(3, 4, 2, {(1, 2, 0, 1): 1}),
    ),
    "apply-P300": (
        ["apply", "-p", "3", "-n", "4", "--ops", "P300"]
        + ["--expr", "t1^6560*t2^6560*t3^6560*t4^6560"],
        None,
    ),
}

# inputs that fit: c(reg)^2 at (3,4) has 6,699 terms, reg plus 80 copies of
# t1 has the degree of 2*reg, and 2*reg minus a weight at (5,3) builds c(reg)
# times 123 linear factors, 418,737 terms from 1,446,357 monomials before
# reduction mod 5, in about 40 s
FITTING = {
    "chern-rep-2reg-at-3-4": (["chern-rep", "-p", "3", "-n", "4"], regular_weights(3, 4, 2)),
    "mu-2reg-at-3-4": (["mu", "-p", "3", "-n", "4"], regular_weights(3, 4, 2)),
    "chern-rep-reg-plus-t1-x80-at-3-4": (
        ["chern-rep", "-p", "3", "-n", "4"],
        regular_weights(3, 4, 1, {(1, 0, 0, 0): 81}),
    ),
    "chern-rep-2reg-minus-one-at-5-3": (
        ["chern-rep", "-p", "5", "-n", "3"],
        regular_weights(5, 3, 2, {(1, 2, 3): 1}),
    ),
}


def run_limited(tmp_path, argv, weights, timeout):
    """argv in a fresh interpreter with 1 GB of address space."""
    if weights is not None:
        path = tmp_path / "weights.txt"
        path.write_text(weights)
        argv = argv + ["--weights", str(path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "milnorq.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_apply(self, capsys):
        code, out, _ = run(
            capsys, ["apply", "-p", "3", "-n", "2", "--ops", "Q0,Q1", "--expr", "dt1*dt2"]
        )
        assert code == 0
        assert out.strip() == "t1^3*t2 - t1*t2^3"

    def test_moore_json_round_trips(self, capsys):
        code, out, _ = run(capsys, ["moore", "-p", "3", "-n", "2", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 3 and data["n"] == 2
        assert len(data["terms"]) == 2

    def test_dickson_schema(self, capsys):
        code, out, _ = run(capsys, ["dickson", "-p", "3", "-n", "1", "--json"])
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["p", "n", "e", "c"]
        assert data["e"]["terms"] == [{"coeff": 1, "exps": [1], "dts": []}]

    def test_invariance(self, capsys):
        code, out, _ = run(
            capsys,
            ["invariance", "-p", "3", "-n", "2", "--group", "sl", "--expr", "dt1*dt2"],
        )
        assert code == 0
        assert "yes" in out
        code, out, _ = run(
            capsys,
            [
                "invariance", "-p", "3", "-n", "2", "--group", "gl",
                "--expr", "t1^3*t2 - t1*t2^3",
            ],
        )
        assert code == 0
        assert "no" in out

    def test_membership(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "membership", "-p", "3", "-n", "2", "--ring", "d",
                "--expr", "t1^6*t2^2 + t1^4*t2^4 + t1^2*t2^6", "--json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["member"] is True
        assert data["decomposition"] == [{"exponents": [0, 1], "coeff": 1}]
        code, out, _ = run(
            capsys,
            ["membership", "-p", "3", "-n", "2", "--ring", "d", "--expr", "t1^2"],
        )
        assert code == 0
        assert "not a member" in out

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_membership_names_the_generators_without_building_them(
        self, capsys, monkeypatch, extra
    ):
        # t1 has degree 2, below every D_4 generator: decided and named
        # from the closed-form degrees, with no Dickson class built
        def unreachable(*args):
            raise AssertionError("the Dickson set was built")

        monkeypatch.setattr(invariants, "dickson_classes", unreachable)
        argv = ["membership", "-p", "3", "-n", "4", "--ring", "d", "--expr", "t1"]
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        if extra:
            data = json.loads(out)
            assert data["generators"] == ["c3", "c2", "c1", "c0"]
            assert data["member"] is False
        else:
            assert out == "not a member of D_4\n"

    def test_orbit(self, capsys):
        code, out, _ = run(
            capsys, ["orbit", "-p", "3", "-n", "2", "--group", "sl", "--start", "1,0"]
        )
        assert code == 0
        assert out.strip() == "orbit size: 8"

    def test_hilbert(self, capsys):
        code, out, _ = run(
            capsys,
            ["hilbert", "-p", "3", "-n", "2", "--group", "sl", "--max-degree", "8", "--json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert data["rows"][2] == {"d": 2, "computed": 1, "predicted": 1, "match": True}

    def test_theorem_main(self, capsys):
        code, out, _ = run(
            capsys, ["theorem-main", "-p", "3", "-n", "3", "--a-max", "4", "--json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "rank3"
        assert [row["in_D"] for row in data["rows"]] == [False, True, False, True]
        assert data["contract_holds"] is True

    def test_chern_reg(self, capsys):
        code, out, _ = run(capsys, ["chern-reg", "-p", "3", "-n", "2", "--json"])
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_prop_iso(self, capsys):
        for n in ("2", "3"):
            code, out, _ = run(capsys, ["prop-iso", "-p", "3", "-n", n, "--json"])
            assert code == 0
            data = json.loads(out)
            assert data["dim"] == 1 and data["match"] is True

    def test_e8_adjoint_documented_payload(self, capsys):
        code, out, _ = run(capsys, ["e8-adjoint", "-p", "3", "--json"])
        assert code == 0
        data = json.loads(out)
        documented = {
            "p": 3,
            "c2": -120,
            "valuation": 1,
            "gamma_mod_p": 2,
            "series": [1, 0, -120, 0, 7056],
            "lambda2_dim": 112,
            "spin_dim": 128,
        }
        for key, value in documented.items():
            assert data[key] == value


class TestWeightsFiles:
    @pytest.fixture
    def weights_file(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# two lines\n1,0 x2\n0,1\n")
        return str(path)

    def test_chern_rep(self, capsys, weights_file):
        code, out, _ = run(
            capsys, ["chern-rep", "-p", "3", "-n", "2", "--weights", weights_file]
        )
        assert code == 0
        assert "dimension 3" in out
        assert "t1" in out

    def test_mu(self, capsys, weights_file):
        code, out, _ = run(
            capsys, ["mu", "-p", "3", "-n", "2", "--weights", weights_file, "--json"]
        )
        assert code == 0
        data = json.loads(out)
        profile = {tuple(row["weight"]): row["mu"] for row in data["profile"]}
        assert profile[(1, 0)] == 2
        assert profile[(0, 1)] == 1
        assert data["power_of_regular"] is None

    def test_mu_refuses_beyond_the_desk_scale(self, capsys, tmp_path, monkeypatch):
        # the profile would visit all 97^4 vectors; refused at once
        def unreachable(*args):
            raise AssertionError("the guard let the profile start")

        monkeypatch.setattr(chern, "_coordinate_change", unreachable)
        path = tmp_path / "weights.txt"
        path.write_text("1,2,3,4\n5,0,0,1 x2\n0,0,0,96\n")
        argv = ["mu", "-p", "97", "-n", "4", "--weights", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "resource guard" in err

    @pytest.mark.parametrize("command", ["chern-rep", "mu"])
    def test_a_large_file_is_priced_before_it_is_read(self, capsys, tmp_path, monkeypatch, command):
        # a sparse file of 84 MB: its size is refused, no byte of it is read
        def unreachable(*args):
            raise AssertionError("the file was read")

        monkeypatch.setattr(chern.WeightMultiset, "parse", unreachable)
        path = tmp_path / "weights.txt"
        with open(path, "wb") as fh:
            fh.truncate(84 << 20)
        code, out, err = run(capsys, [command, "-p", "3", "-n", "2", "--weights", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("resource guard: a weights file of 88080384 bytes, about ")

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, ["mu", "-p", "3", "-n", "2", "--weights", "/nonexistent"]
        )
        assert code == 2
        assert "error" in err


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, ["dickson", "-p", "3"])[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_expression_parse_error(self, capsys):
        code, _, err = run(
            capsys, ["apply", "-p", "3", "-n", "2", "--ops", "Q0", "--expr", "dt1*dt1"]
        )
        assert code == 2
        assert "parse error" in err

    def test_parse_error_names_the_character_and_its_position(self, capsys):
        argv = ["apply", "-p", "3", "-n", "2", "--ops", "Q0", "--expr", "t1 + $"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "parse error: unexpected character '$' (at position 5)\n"

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, ["dickson", "-p", "5", "-n", "4"])
        assert code == 2
        assert "resource guard" in err

    def test_hilbert_refuses_matrices_beyond_the_byte_bound(self, capsys, monkeypatch):
        # degree 200 at (97, 4) stores 1,373,701 terms, about 2.1 GB; the
        # top degree is priced first, before any degree is computed
        def unreachable(*args):
            raise AssertionError("the guard let the call through")

        monkeypatch.setattr(invariants, "monomials", unreachable)
        argv = ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "200"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("resource guard: degree-200 invariants store up to 1373701 terms")

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_hilbert_prices_its_range_before_the_first_degree(self, capsys, monkeypatch, extra):
        # at n = 1 every grade has one term, so only the rows and lines of
        # 10^9 + 1 degrees can refuse it, before any degree or series runs
        def unreachable(*args):
            raise AssertionError("the range was not priced first")

        for name in ("invariant_dimension", "check_invariant_matrix_bytes", "_hilbert_series"):
            monkeypatch.setattr(invariants, name, unreachable)
        argv = ["hilbert", "-p", "3", "-n", "1", "--group", "sl", "--max-degree", "1000000000"]
        code, out, err = run(capsys, argv + extra)
        assert (code, out) == (2, "")
        assert err.startswith("resource guard: rows and lines for 1000000001 degrees, about ")

    def test_membership_refuses_before_building_monomials(self, capsys, monkeypatch):
        # degree 1200 at (3, 4) has 36,361,101 monomials; refused at once,
        # priced from the generator degrees before f_n is built
        def unreachable(*args):
            raise AssertionError("the guard let the call through")

        monkeypatch.setattr(invariants, "monomials", unreachable)
        monkeypatch.setattr(invariants, "dickson_classes", unreachable)
        argv = ["membership", "-p", "3", "-n", "4", "--ring", "d", "--expr", "t1^600"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "resource guard" in err

    def test_invariance_prices_the_shear_before_expanding(self, capsys, monkeypatch):
        # t1^(3^17 - 1) -> (t1 + t2)^(3^17 - 1) has 3^17 terms, all nonzero
        # mod 3 (Lucas): about 1.3e8 terms, refused before the shear runs
        def unreachable(*args):
            raise AssertionError("the guard let the shear start")

        monkeypatch.setattr(algebra, "_shear", unreachable)
        expr = "t1^129140162 + t2^129140162"
        argv = ["invariance", "-p", "3", "-n", "2", "--group", "sl", "--expr", expr]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("resource guard: a substitution expands into up to 129140164 terms")

    @pytest.mark.parametrize("name", GROWING)
    def test_growing_inputs_exit_2_under_a_memory_limit(self, tmp_path, name):
        # a guard that let the work start would die with a MemoryError or
        # run past the timeout
        done = run_limited(tmp_path, *GROWING[name], timeout=30)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("resource guard:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("name", FITTING)
    def test_fitting_inputs_exit_0_under_a_memory_limit(self, tmp_path, name):
        done = run_limited(tmp_path, *FITTING[name], timeout=300)
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize(
        "ops, expr, message",
        [
            ("Q0", "t\u0661 + t\u0662", "parse error: unexpected character 't' (at position 0)"),
            ("Q\u0661", "t1", "error: bad operation atom 'Q\u0661'; expected Q<i> or P<j>"),
            ("Q\u00b2", "t1", "error: bad operation atom 'Q\u00b2'; expected Q<i> or P<j>"),
        ],
        ids=["arabic-indic-index", "arabic-indic-op", "superscript-op"],
    )
    def test_only_ascii_digits_are_read(self, capsys, ops, expr, message):
        # int() reads Arabic-Indic digits, and str.isdigit() accepts "²"
        argv = ["apply", "-p", "3", "-n", "2", "--ops", ops, "--expr", expr]
        assert run(capsys, argv) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "argv, weights, message",
        [
            (
                ["dickson", "-p", "\u0663", "-n", "\u0662"],
                None,
                "usage: milnorq dickson [-h] -p P -n N [--json] [--out FILE]\n"
                "milnorq dickson: error: argument -p/--p: invalid ascii_int value: "
                "'\u0663'",
            ),
            (
                ["dickson", "-p", "3", "-n", "\u0662"],
                None,
                "usage: milnorq dickson [-h] -p P -n N [--json] [--out FILE]\n"
                "milnorq dickson: error: argument -n/--n: invalid ascii_int value: "
                "'\u0662'",
            ),
            (
                ["dickson", "-p", "9_7", "-n", "2"],
                None,
                "usage: milnorq dickson [-h] -p P -n N [--json] [--out FILE]\n"
                "milnorq dickson: error: argument -p/--p: invalid ascii_int value: '9_7'",
            ),
            (
                ["orbit", "-p", "5", "-n", "2", "--group", "gl", "--start", "\u0661,0"],
                None,
                "error: '\u0661' is not an ASCII integer",
            ),
            (
                ["chern-rep", "-p", "3", "-n", "2"],
                "\u0661,0 x2\n",
                "error: line 1: bad weight '\u0661,0'",
            ),
            (
                ["mu", "-p", "3", "-n", "2"],
                "\u0661,0 x\u0662\n",
                "error: line 1: bad multiplicity 'x\u0662'",
            ),
            (
                ["e8-adjoint", "-p", "3", "--trunc", "\u0664"],
                None,
                "usage: milnorq e8-adjoint [-h] -p P [--json] [--out FILE] "
                "[--trunc TRUNC]\n"
                "milnorq e8-adjoint: error: argument --trunc: invalid ascii_int "
                "value: '\u0664'",
            ),
            (
                ["hilbert", "-p", "3", "-n", "2", "--group", "sl", "--max-degree", "\u0664"],
                None,
                "usage: milnorq hilbert [-h] -p P -n N [--json] [--out FILE] --group {sl,gl}\n"
                "                       --max-degree MAX_DEGREE\n"
                "milnorq hilbert: error: argument --max-degree: invalid ascii_int "
                "value: '\u0664'",
            ),
            (
                ["theorem-main", "-p", "3", "-n", "2", "--a-max", "\u0664"],
                None,
                "usage: milnorq theorem-main [-h] -p P -n N [--json] [--out FILE]\n"
                "                            [--a-max A_MAX]\n"
                "milnorq theorem-main: error: argument --a-max: invalid ascii_int "
                "value: '\u0664'",
            ),
        ],
        ids=[
            "prime",
            "rank",
            "underscore",
            "orbit-start",
            "weight-coordinate",
            "weight-multiplicity",
            "trunc",
            "max-degree",
            "a-max",
        ],
    )
    def test_integers_are_ascii_only(
        self, capsys, monkeypatch, tmp_path, argv, weights, message
    ):
        # int() reads Arabic-Indic digits and underscores; argparse wraps
        # its usage line to the terminal width, fixed here at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        if weights is not None:
            path = tmp_path / "weights.txt"
            path.write_text(weights, encoding="utf-8")
            argv = argv + ["--weights", str(path)]
        assert run(capsys, argv) == (2, "", message + "\n")

    def test_e8_adjoint_refuses_a_trunc_beyond_the_dimension(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the guard let the series start")

        with monkeypatch.context() as patched:
            patched.setattr(torus, "chern_series", unreachable)
            code, out, err = run(capsys, ["e8-adjoint", "-p", "3", "--trunc", "241"])
        assert (code, out) == (2, "")
        assert err == "resource guard: trunc 241 exceeds the character's dimension 240\n"
        code, out, err = run(capsys, ["e8-adjoint", "-p", "3", "--trunc", "240", "--json"])
        assert (code, err) == (0, "")
        assert len(json.loads(out)["series"]) == 241

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_hilbert_rejects_a_negative_max_degree(self, capsys, monkeypatch, extra):
        def unreachable(*args):
            raise AssertionError("a negative max degree reached the solver")

        monkeypatch.setattr(invariants, "monomials", unreachable)
        argv = ["hilbert", "-p", "3", "-n", "2", "--group", "sl", "--max-degree", "-1"]
        code, out, err = run(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert "max degree must be non-negative" in err

    @pytest.mark.parametrize("p, n", [(3, 4), (97, 4), (3, 1)])
    def test_theorem_main_reads_its_case_off_n(self, capsys, p, n):
        # no case for this rank; at (97, 4) the work bound is not reached
        code, out, err = run(capsys, ["theorem-main", "-p", str(p), "-n", str(n)])
        assert (code, out, err) == (2, "", "error: theorem-main needs n = 2 or n = 3\n")

    def test_theorem_main_has_no_case_option(self, capsys):
        code, out, err = run(capsys, ["theorem-main", "-p", "3", "-n", "2", "--case", "pu"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --case pu" in err

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_out_is_refused(self, capsys, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, ["dickson", "-p", "3", "-n", "2", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and err.endswith(f"'{target}'\n")

    def test_bad_prime(self, capsys):
        assert run(capsys, ["dickson", "-p", "4", "-n", "2"])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0


# one call of each of the 13 subcommands; WEIGHTS is replaced by a file path
EVERY_SUBCOMMAND = [
    ["dickson", "-p", "5", "-n", "2"],
    ["moore", "-p", "3", "-n", "3"],
    ["apply", "-p", "3", "-n", "2", "--ops", "Q0,P1", "--expr", "t1*dt2 + dt1"],
    ["invariance", "-p", "3", "-n", "2", "--group", "gl", "--expr", "dt1*dt2"],
    ["membership", "-p", "3", "-n", "2", "--ring", "sd", "--expr", "t1^3*t2 - t1*t2^3"],
    ["orbit", "-p", "5", "-n", "2", "--group", "sl", "--start", "1,2"],
    ["hilbert", "-p", "3", "-n", "2", "--group", "gl", "--max-degree", "6"],
    ["theorem-main", "-p", "3", "-n", "2"],
    ["chern-reg", "-p", "3", "-n", "2"],
    ["chern-rep", "-p", "3", "-n", "2", "--weights", "WEIGHTS"],
    ["mu", "-p", "3", "-n", "2", "--weights", "WEIGHTS"],
    ["prop-iso", "-p", "3", "-n", "2"],
    ["e8-adjoint", "-p", "5"],
]


# extreme inputs of every subcommand: -p and -n at and past the ends of
# their ranges, and each growing option at a value that is refused or
# fits.  Weights files are named by their key in extreme_weights.
HUGE = "1" + "0" * 30
EXTREME_P = ["97", "3", HUGE]
EXTREME_N = ["4", "1", "2", "1000000000"]
EXTREME_WEIGHTS = {
    "sparse-84MB": 84 << 20,
    "x6560": "1,1 x6560\n",
    "one-x1e18": "1 x1000000000000000000\n",
    "four-x1e18": "1,2,3,4 x1000000000000000000\n",
}
EXTREME_ARGS = {
    "dickson": [[]],
    "moore": [[]],
    "apply": [
        ["--ops", ops, "--expr", expr]
        for ops in ("P300", "P1000000000", "Q60,Q61")
        for expr in ("t1^6560*t2^6560*t3^6560*t4^6560", "t1^1000000000*dt1")
    ],
    "invariance": [
        ["--group", group, "--expr", expr]
        for group in ("sl", "gl")
        for expr in ("t1^129140162 + t2^129140162", "t1^1000000000*dt1")
    ],
    "membership": [
        ["--ring", ring, "--expr", f"t1^{a}"]
        for ring in ("d", "sd")
        for a in (324, 1000000000, 2000000, 600)
    ],
    "orbit": [
        ["--group", group, "--start", start]
        for group in ("gl", "sl")
        for start in ("1,0,0,0", "1", "0,0")
    ],
    "hilbert": [
        ["--group", group, "--max-degree", top]
        for group in ("sl", "gl")
        for top in ("200", "1000000000", "-1")
    ],
    "theorem-main": [["--a-max", a] for a in ("1000000000", "0", "1")],
    "chern-reg": [[]],
    "chern-rep": [["--weights", name] for name in EXTREME_WEIGHTS],
    "mu": [["--weights", name] for name in EXTREME_WEIGHTS],
    "prop-iso": [[]],
    "e8-adjoint": [["--trunc", trunc] for trunc in ("1000000000", "241", "0", "-5")],
}
SELF_CHECKED = {"hilbert", "theorem-main", "chern-reg", "prop-iso"}  # may exit 1


@pytest.fixture(scope="module")
def extreme_weights(tmp_path_factory):
    """EXTREME_WEIGHTS written out; an int is the size of a sparse file."""
    folder = tmp_path_factory.mktemp("weights")
    paths = {}
    for name, body in EXTREME_WEIGHTS.items():
        path = folder / name
        with open(path, "wb") as fh:
            if isinstance(body, int):
                fh.truncate(body)
            else:
                fh.write(body.encode())
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", EXTREME_ARGS)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from(EXTREME_P), n=st.sampled_from(EXTREME_N), data=st.data())
def test_extreme_inputs_exit_cleanly_under_a_memory_limit(extreme_weights, command, p, n, data):
    # each call is refused (2) or finishes (0, or 1 for a failed self-check)
    # in a fresh interpreter with 1 GB of address space, with no traceback
    args = data.draw(st.sampled_from(EXTREME_ARGS[command]), label="args")
    args = [extreme_weights.get(a, a) for a in args]
    argv = [command, "-p", p] + ([] if command == "e8-adjoint" else ["-n", n]) + args
    done = run_limited(None, argv, None, timeout=60)
    assert done.returncode in ({0, 1, 2} if command in SELF_CHECKED else {0, 2}), argv
    assert "Traceback" not in done.stderr, argv


def subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return list(action.choices)


class TestParser:
    EVERY = [call[0] for call in EVERY_SUBCOMMAND]

    def test_holds_only_the_subcommand_argv_starts_with(self):
        for call in EVERY_SUBCOMMAND:
            assert subcommands(build_parser(call)) == call[:1]
            assert subcommands(build_parser(call[:1])) == call[:1]

    @pytest.mark.parametrize(
        "argv", [None, [], ["--help"], ["-h", "mu"], ["frobnicate"], ["--json", "mu"]]
    )
    def test_holds_every_subcommand_otherwise(self, argv):
        assert subcommands(build_parser(argv)) == self.EVERY

    def test_help_lists_every_subcommand(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert re.findall(r"^    (\S+)", out, re.M) == self.EVERY


class TestOutputContract:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        weights = tmp_path / "weights.txt"
        weights.write_text("1,0 x2\n0,1\n1,1\n")
        for call in EVERY_SUBCOMMAND:
            argv = [str(weights) if a == "WEIGHTS" else a for a in call]
            for extra in ([], ["--json"]):
                first = run(capsys, argv + extra)
                assert first[0] == 0 and first[1], argv + extra
                assert run(capsys, argv + extra) == first, argv + extra

    @pytest.mark.parametrize("call", EVERY_SUBCOMMAND, ids=[c[0] for c in EVERY_SUBCOMMAND])
    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path, call):
        weights = tmp_path / "weights.txt"
        weights.write_text("1,0 x2\n0,1\n1,1\n")
        argv = [str(weights) if a == "WEIGHTS" else a for a in call]
        target = tmp_path / "report"
        for extra in ([], ["--json"]):
            code, printed, _ = run(capsys, argv + extra)
            assert code == 0 and printed, argv + extra
            assert run(capsys, argv + extra + ["--out", str(target)]) == (0, "", "")
            assert target.read_bytes() == printed.encode("utf-8"), argv + extra
            if extra and call[0] != "e8-adjoint":
                assert list(json.loads(printed))[:2] == ["p", "n"], argv

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["e8-adjoint", "-p", "5", "--json", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["c2"] == -120
