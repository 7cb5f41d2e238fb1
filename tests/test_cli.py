import argparse
import json
import re

import pytest

from milnorq import chern, invariants
from milnorq.cli import build_parser, main


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

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, ["dickson", "-p", "5", "-n", "4"])
        assert code == 2
        assert "resource guard" in err

    def test_hilbert_refuses_matrices_beyond_the_byte_bound(self, capsys, monkeypatch):
        # degree 40 at (97, 4) would need about 2.7 GB of matrices; the
        # guard must refuse before any degree is computed
        def unreachable(*args):
            raise AssertionError("the guard let the call through")

        monkeypatch.setattr(invariants, "degree_basis", unreachable)
        argv = ["hilbert", "-p", "97", "-n", "4", "--group", "sl", "--max-degree", "40"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "resource guard" in err

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

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_hilbert_rejects_a_negative_max_degree(self, capsys, monkeypatch, extra):
        def unreachable(*args):
            raise AssertionError("a negative max degree reached the solver")

        monkeypatch.setattr(invariants, "degree_basis", unreachable)
        argv = ["hilbert", "-p", "3", "-n", "2", "--group", "sl", "--max-degree", "-1"]
        code, out, err = run(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert "max degree must be non-negative" in err

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
                if extra and "-n" in argv:
                    assert list(json.loads(first[1]))[:2] == ["p", "n"], argv

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["e8-adjoint", "-p", "5", "--json", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["c2"] == -120
