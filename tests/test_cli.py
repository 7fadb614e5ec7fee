import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lmlab import BallParams, Lattice, classify, verify_lattice_packing
from lmlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBallAndEnumerate:
    def test_ball_text(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "--n", "3", "--e", "1", "--s", "1")
        assert code == 0 and out == "7\n"

    def test_ball_json(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "--n", "3", "--e", "1", "--s", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"volume": "7"}

    def test_ball_asymmetric(self, capsys):
        code, out, _ = run_cli(capsys, "ball", "--n", "2", "--e", "1", "--kplus", "2", "--kminus", "0")
        assert code == 0 and out == "5\n"

    def test_enumerate_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--e", "1", "--s", "1")
        assert code == 0
        assert out.splitlines() == ["-1,0", "0,-1", "0,0", "0,1", "1,0"]

    def test_conflicting_magnitude_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "ball", "--n", "2", "--e", "1", "--s", "1", "--kplus", "1"
        )
        assert code == 2 and "error" in err


def decimal_digits(value):
    """Decimal digits of a nonnegative int, one division by 10 at a time."""
    digits = []
    while True:
        value, digit = divmod(value, 10)
        digits.append("0123456789"[digit])
        if not value:
            return "".join(reversed(digits))


class TestBigIntegers:
    """Numbers past the interpreter's int-to-str limit (4,300 digits by default)."""

    def test_ball_volume(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "ball", "--n", "5000", "--e", "5000", "--s", "4")
        # e = n: the ball is the box [-4, 4]^5000.
        assert code == 0 and err == ""
        assert out == decimal_digits(9**5000) + "\n" and len(out) == 4773
        assert sys.get_int_max_str_digits() == limit

    def test_lattice_case_sum(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "classify", "--n", "4600", "--e", "4599", "--s", "4", "--format", "json"
        )
        assert code == 0
        # sum_{i=1..e} C(n, i) (2k)^(i-1) for n = 4600, e = 4599, k = 4.
        total, term, power = 0, 1, 1
        for i in range(1, 4600):
            term = term * (4600 - i + 1) // i
            total += term * power
            power *= 8
        assert len(decimal_digits(total)) > 4300
        label = f"sum={decimal_digits(total)}>=(4+1)^e={decimal_digits(5**4599)}"
        cases = [c for c in json.loads(out)["criteria"] if c["name"] == "lattice-tiling-cases"]
        assert len(cases) == 1 and label in cases[0]["detail"]
        assert sys.get_int_max_str_digits() == limit


class TestDist:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--s", "2", "--x", "1,3,4", "--y", "0,0,0")
        assert code == 0 and out == "5\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--s", "1", "--x", "3,0", "--y", "0,0", "--format", "json"
        )
        assert json.loads(out) == {"distance": "5"}


class TestVerifyLattice:
    def test_tiling_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-lattice", "--n", "2", "--e", "1", "--s", "1",
            "--gen", "1,2;2,-1", "--mode", "tiling",
        )
        assert code == 0
        assert out.splitlines()[0] == "tiles"

    def test_expect_match_and_mismatch(self, capsys):
        base = [
            "verify-lattice", "--n", "2", "--e", "1", "--s", "1",
            "--gen", "1,2;2,-1", "--mode", "tiling",
        ]
        assert run_cli(capsys, *base, "--expect", "tiles")[0] == 0
        code, _, err = run_cli(capsys, *base, "--expect", "fails")
        assert code == 1 and "expected fails" in err

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "verify-lattice", "--n", "2", "--e", "1", "--s", "1",
            "--gen", "5,0;0,1", "--mode", "packing", "--format", "json",
        )
        result = verify_lattice_packing(Lattice(((5, 0), (0, 1))), BallParams.symmetric(2, 1, 1))
        assert json.loads(out) == result.to_json_dict()
        assert result.verdict == "fails" and result.witness is not None


class TestVerifyWindow:
    def test_overlap_with_expect(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-window", "--n", "2", "--e", "1", "--s", "1",
            "--translates", "0,0;1,0", "--window", "5", "--expect", "overlap",
        )
        assert code == 0
        assert out.splitlines()[0] == "overlap"

    def test_disjoint_json(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "verify-window", "--n", "2", "--e", "1", "--s", "1",
            "--translates", "0,0;5,5", "--window", "8", "--format", "json",
        )
        assert json.loads(out) == {"disjoint": True, "witness": None}


class TestDensity:
    def test_exact_lattice_density(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--n", "2", "--e", "1", "--s", "1", "--gen", "7,0;0,1"
        )
        assert code == 0 and out == "5/7\n"

    def test_window_estimate(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "density", "--n", "2", "--e", "1", "--s", "1",
            "--gen", "7,0;0,1", "--window", "24", "--format", "json",
        )
        assert json.loads(out) == {"density": "5/7", "mode": "window"}

    def test_translates_need_window(self, capsys):
        code, _, err = run_cli(
            capsys, "density", "--n", "2", "--e", "1", "--s", "1", "--translates", "0,0"
        )
        assert code == 2 and "window" in err


class TestSearch:
    def test_plane_cross_json_is_bare_array(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "--n", "2", "--e", "1", "--s", "1", "--format", "json"
        )
        assert json.loads(out) == ["1,2;0,5", "1,3;0,5"]

    def test_text_lines(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--n", "2", "--e", "1", "--s", "1")
        assert out.splitlines() == ["1,2;0,5", "1,3;0,5"]


class TestClassify:
    def test_text_and_expect(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--n", "2", "--e", "1", "--s", "1", "--expect", "exists"
        )
        assert code == 0
        assert out.splitlines()[0] == "verdict: exists"

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "classify", "--n", "100", "--e", "40", "--s", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["verdict"] == "excluded"
        assert payload == classify(100, 40, 4).to_json_dict()

    def test_deterministic_output(self, capsys):
        args = ["classify", "--n", "1000", "--e", "200", "--s", "1", "--format", "json"]
        first = run_cli(capsys, *args)[1]
        second = run_cli(capsys, *args)[1]
        assert first == second


class TestClassifyRange:
    def test_csv_shape_and_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify-range", "--n", "3:5", "--e", "0:3", "--s", "1:2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,e,s,verdict,lattice_excluded,criteria"
        rows = [line.split(",")[:3] for line in lines[1:]]
        assert len(rows) == 3 * 4 * 2
        assert rows == sorted(rows, key=lambda r: tuple(map(int, r)))

    def test_single_values(self, capsys):
        _, out, _ = run_cli(capsys, "classify-range", "--n", "4", "--e", "4", "--s", "1")
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("4,4,1,exists")


class TestDensityBound:
    def test_finite_value(self, capsys):
        code, out, _ = run_cli(capsys, "density-bound", "--n", "100", "--e", "50", "--s", "4")
        assert code == 0 and out == "1275/2401\n"

    def test_not_applicable(self, capsys):
        _, out, _ = run_cli(capsys, "density-bound", "--n", "100", "--e", "10", "--s", "2")
        assert out == "not-applicable\n"

    def test_vacuous_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "density-bound", "--n", "100", "--e", "50", "--s", "2", "--format", "json"
        )
        assert json.loads(out) == {
            "applicable": True,
            "value": "2550/2401",
            "vacuous": True,
        }

    def test_asymptotic_regime(self, capsys):
        _, out, _ = run_cli(
            capsys, "density-bound", "--regime", "linear", "--a", "1/2", "--s", "4"
        )
        assert out == "1/2\n"


class TestQpCheck:
    def test_ok_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "qp-check", "--s", "2", "--K", "5", "--a", "3", "--expect", "ok"
        )
        assert code == 0
        payload_lines = out.splitlines()
        assert payload_lines[0].startswith("closed=")
        assert payload_lines[-1] == "ok"

    def test_spec_example_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "qp-check", "--s", "2", "--K", "5", "--a", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["binary"] == "22"
        assert payload["envelope"] == "45/2"
        assert payload["ok"] is True


class TestTable:
    def test_explicit_row_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--s", "1", "--epsilon", "1/15")
        assert code == 0 and out == "1591, 9.92\n"

    def test_trailing_zero_coefficient(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--s", "2", "--epsilon", "1/15")
        assert out == "1201, 8.80\n"

    def test_csv(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--s", "2", "--epsilon", "1/10", "--format", "csv")
        assert out == "s,epsilon,min_n,coefficient\n2,1/10,501,6.12\n"


class TestEquivalenceCheck:
    def test_equal(self, capsys):
        code, out, _ = run_cli(
            capsys, "equivalence-check", "--n", "2", "--t", "1", "--s", "1",
            "--expect", "equal",
        )
        assert code == 0 and out.splitlines()[0] == "equal"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ball", "--n", "3", "--e", "1", "--s"])
        assert info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_parameter_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "ball", "--n", "3", "--e", "9", "--s", "1")
        assert code == 2 and "error:" in err

    def test_csv_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys, "ball", "--n", "3", "--e", "1", "--s", "1", "--format", "csv"
        )
        assert code == 2 and "CSV" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lmlab", "table", "--s", "1", "--epsilon", "1/10"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout == "641, 6.84\n"

    def test_numpy_is_imported_lazily(self):
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        check = "import lmlab, sys; assert 'numpy' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0
        # -X importtime lists every module the CLI run imports on stderr.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "lmlab", "ball", "--n", "3", "--e", "1", "--s", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0 and proc.stdout == "7\n"
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "lmlab.cli" in imported and "numpy" not in imported


#: Exact stdout and exit code per invocation, recorded from the CLI; outputs
#: longer than 200 characters are pinned by their sha256.
GOLDENS = [
    # The README examples.
    ("ball --n 3 --e 1 --s 1", 0, "7\n"),
    ("enumerate --n 2 --e 1 --s 1", 0, "-1,0\n0,-1\n0,0\n0,1\n1,0\n"),
    ("dist --s 2 --x 1,3,4 --y 0,0,0", 0, "5\n"),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 1,2;2,-1 --mode tiling --expect tiles",
        0,
        "tiles\nvolume=5 index=5\n",
    ),
    (
        "verify-window --n 2 --e 1 --s 1 --translates 0,0;1,0 --window 5",
        0,
        "overlap\nwitness=0,0\n",
    ),
    ("density --n 2 --e 1 --s 1 --gen 7,0;0,1", 0, "5/7\n"),
    ("search --n 2 --e 1 --s 1 --format json", 0, '["1,2;0,5","1,3;0,5"]\n'),
    (
        "classify --n 100 --e 40 --s 4 --expect excluded",
        0,
        "sha256:a8c638611551bfb5ce371762fea41c82bb67cc9f01e3f63b8d4f8519d7be1d18",
    ),
    (
        "classify-range --n 3:10 --e 0:10 --s 1:2",
        0,
        "sha256:d9fca296af31ac9405ec9b24efc5a231f58122cf187628f5c05e315aecd3d5ec",
    ),
    ("density-bound --n 100 --e 50 --s 4", 0, "1275/2401\n"),
    ("density-bound --regime linear --a 1/2 --s 4", 0, "1/2\n"),
    (
        "qp-check --s 2 --K 5 --a 3 --expect ok",
        0,
        "closed=45/2 at 1,1/2,2,1/2,1\noracle=22.500000000\nbinary=22 envelope=45/2\nok\n",
    ),
    ("table --s 1 --epsilon 1/15", 0, "1591, 9.92\n"),
    ("equivalence-check --n 2 --t 1 --s 1 --expect equal", 0, "equal\n"),
    # Every subcommand in each output format it supports, plus exit codes 1 and 2.
    ("ball --n 3 --e 1 --s 1 --format json", 0, '{"volume":"7"}\n'),
    ("ball --n 2 --e 1 --kplus 2 --kminus 0", 0, "5\n"),
    ("ball --n 40 --e 20 --s 3 --format json", 0, '{"volume":"597202016110371492436865473"}\n'),
    ("ball --n 3 --e 1 --s 1 --format csv", 2, ""),
    ("ball --n 3 --e 9 --s 1", 2, ""),
    (
        "enumerate --n 2 --e 1 --s 1 --format json",
        0,
        '{"count":"5","vectors":["-1,0","0,-1","0,0","0,1","1,0"]}\n',
    ),
    ("enumerate --n 2 --e 2 --kplus 1 --kminus 0", 0, "0,0\n0,1\n1,0\n1,1\n"),
    (
        "enumerate --n 3 --e 2 --s 1 --format json",
        0,
        '{"count":"19","vectors":["-1,-1,0","-1,0,-1","-1,0,0","-1,0,1","-1,1,0","0,-1,-1","0,-1,0","0,-1,1","0,0,-1","0,0,0","0,0,1","0,1,-1","0,1,0","0,1,1","1,-1,0","1,0,-1","1,0,0","1,0,1","1,1,0"]}\n',
    ),
    ("enumerate --n 3 --e 1 --s 1 --enum-cap 5", 2, ""),
    ("enumerate --n 3 --e 1 --s 1 --enum-cap 0", 2, ""),
    ("dist --s 1 --x 3,0 --y 0,0 --format json", 0, '{"distance":"5"}\n'),
    ("dist --s 2 --x 4,-4,1 --y 0,0,0 --format json", 0, '{"distance":"5"}\n'),
    ("dist --s 1 --x 1,2 --y 0", 2, ""),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 1,2;2,-1 --format json",
        0,
        '{"index":"5","verdict":"tiles","volume":"5","witness":null}\n',
    ),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 5,0;0,1 --mode packing",
        0,
        "fails\nvolume=5 index=5\nwitness=(0,-1),(0,0)\n",
    ),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 5,0;0,1 --mode packing --format json",
        0,
        '{"index":"5","verdict":"fails","volume":"5","witness":["0,-1","0,0"]}\n',
    ),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 7,0;0,1",
        0,
        "fails\nvolume=5 index=7\nwitness=(0,-1),(0,0)\n",
    ),
    (
        "verify-lattice --n 2 --e 1 --s 1 --gen 1,2;2,-1 --expect fails",
        1,
        "tiles\nvolume=5 index=5\n",
    ),
    (
        "verify-lattice --n 4 --e 1 --s 1 --gen 9,0,0,0;-2,1,0,0;-3,0,1,0;-4,0,0,1 --format json",
        0,
        '{"index":"9","verdict":"tiles","volume":"9","witness":null}\n',
    ),
    (
        "verify-lattice --n 2 --e 1 --kplus 2 --kminus 0 --gen 5,0;1,1",
        0,
        "tiles\nvolume=5 index=5\n",
    ),
    ("verify-lattice --n 2 --e 1 --s 1 --gen 1,2;2,4", 2, ""),
    (
        "verify-window --n 2 --e 1 --s 1 --translates 0,0;1,0 --window 5 --format json",
        0,
        '{"disjoint":false,"witness":"0,0"}\n',
    ),
    (
        "verify-window --n 2 --e 1 --s 1 --translates 0,0;5,5 --window 8 --format json",
        0,
        '{"disjoint":true,"witness":null}\n',
    ),
    (
        "verify-window --n 2 --e 1 --s 1 --translates 0,0;1,2;2,-1 --window 5 --expect disjoint",
        0,
        "disjoint\n",
    ),
    ("verify-window --n 2 --e 1 --s 1 --translates 0,0;6,0 --window 0", 0, "disjoint\n"),
    (
        "verify-window --n 2 --e 1 --s 1 --translates 0,0;1,0 --window 5 --expect disjoint",
        1,
        "overlap\nwitness=0,0\n",
    ),
    ("verify-window --n 2 --e 1 --s 1 --translates 0,0;1,0 --window -1", 2, ""),
    ("verify-window --n 2 --e 1 --s 1 --translates 0,0;1,0 --window 5 --cell-cap 3", 2, ""),
    (
        "density --n 2 --e 1 --s 1 --gen 1,2;2,-1 --format json",
        0,
        '{"density":"1","mode":"exact"}\n',
    ),
    (
        "density --n 2 --e 1 --s 1 --gen 7,0;0,1 --window 24 --format json",
        0,
        '{"density":"5/7","mode":"window"}\n',
    ),
    ("density --n 2 --e 1 --s 1 --gen 1,2;2,-1 --window 6", 0, "165/169\n"),
    ("density --n 2 --e 1 --s 1 --translates 0,0;1,2;9,9 --window 3", 0, "10/49\n"),
    ("density --n 2 --e 1 --s 1 --translates 0,0", 2, ""),
    ("search --n 2 --e 1 --s 1", 0, "1,2;0,5\n1,3;0,5\n"),
    (
        "search --n 3 --e 1 --s 1 --format json",
        0,
        '["1,0,2;0,1,3;0,0,7","1,0,2;0,1,4;0,0,7","1,0,3;0,1,2;0,0,7","1,0,3;0,1,5;0,0,7","1,0,4;0,1,2;0,0,7","1,0,4;0,1,5;0,0,7","1,0,5;0,1,3;0,0,7","1,0,5;0,1,4;0,0,7"]\n',
    ),
    ("search --n 2 --e 1 --s 2", 0, ""),
    ("search --n 2 --e 1 --kplus 2 --kminus 0 --format json", 0, '["1,1;0,5"]\n'),
    ("search --n 2 --e 1 --s 1 --index-cap 4", 2, ""),
    (
        "classify --n 2 --e 1 --s 1 --expect exists",
        0,
        "sha256:979594fcd17a76ecc86a80e51f6699ac0caa8f523b5147ba6be64a923eee90f9",
    ),
    (
        "classify --n 100 --e 40 --s 4 --format json",
        0,
        "sha256:728dc47709b59fba6b9d2c4b648f087c9136700573b6ca74eb3858d312c3afc3",
    ),
    (
        "classify --n 1000 --e 200 --s 1 --format json",
        0,
        "sha256:c3178b8bfca212e037352d45da69d800ce5b2bb4c5182f29cee01fe30296d8a8",
    ),
    (
        "classify --n 50 --e 20 --s 2",
        0,
        "sha256:4329867fafb398a0fda1310da99fc5cb27b99a1e2a00f188c21f9ff7d8cb5392",
    ),
    (
        "classify --n 4 --e 4 --s 3",
        0,
        "sha256:99f0b32dfb97fbfe7c9d3be2197dddec0e680a193503d7be8007b41486fc7a81",
    ),
    (
        "classify --n 200 --e 60 --s 3 --strict",
        0,
        "sha256:b0cc9e8b6dc19e0826f00166f0c673219f50b4b090f2e9539a19ad3cf3af23c1",
    ),
    (
        "classify --n 200 --e 60 --s 3 --strict --format json",
        0,
        "sha256:76ec909b5f2734e772b81fe7d2223dc8f1d021eb7d1c980ff214bac663dd76f6",
    ),
    (
        "classify --n 64 --e 20 --s 1 --expect open",
        0,
        "sha256:5345441514e33e0ab6aababc6bbd4b47fa0588c23e0a4d383b48e85dd8913d76",
    ),
    ("classify --n 3 --e 5 --s 1", 2, ""),
    (
        "classify-range --n 3:5 --e 0:3 --s 1:2 --format text",
        0,
        "sha256:4200512dd58c17c7c095e73a02333ff0d562e520876b693afe7a5c905be012f3",
    ),
    (
        "classify-range --n 4 --e 4 --s 1 --format json",
        0,
        "sha256:e10b1ce8d28ce4669bfc94866caee1153c923f9fd316f7640dd1bab03efeccfa",
    ),
    (
        "classify-range --n 60:62 --e 10:12 --s 3 --strict",
        0,
        "sha256:09dee7a2304247bab1da87df12caec0085e09212df6c7d736b757dd39a61dfc3",
    ),
    (
        "classify-range --n 3:40 --e 0:40 --s 1:4 --format json",
        0,
        "sha256:5cf8e8aa8fa8650aa27d5dfa5a8872494b028e9888936b88e237f34a07d4bdaa",
    ),
    ("classify-range --n 3:x --e 0 --s 1", 2, ""),
    (
        "density-bound --n 100 --e 50 --s 4 --format json",
        0,
        '{"applicable":true,"vacuous":false,"value":"1275/2401"}\n',
    ),
    ("density-bound --n 100 --e 10 --s 2", 0, "not-applicable\n"),
    (
        "density-bound --n 100 --e 10 --s 2 --format json",
        0,
        '{"applicable":false,"vacuous":false,"value":null}\n',
    ),
    ("density-bound --n 100 --e 50 --s 2", 0, "2550/2401 (vacuous)\n"),
    (
        "density-bound --n 100 --e 50 --s 2 --format json",
        0,
        '{"applicable":true,"vacuous":true,"value":"2550/2401"}\n',
    ),
    (
        "density-bound --regime sqrt --a 2 --s 3 --format json",
        0,
        '{"regime":"sqrt","value":"2/3"}\n',
    ),
    (
        "density-bound --regime linear --a 1/2 --s 4 --format json",
        0,
        '{"regime":"linear","value":"1/2"}\n',
    ),
    ("density-bound --regime sqrt --a 1 --s 3", 2, ""),
    ("density-bound --s 3", 2, ""),
    (
        "qp-check --s 2 --K 5 --a 3 --format json",
        0,
        '{"K":"5","a":"3","binary":"22","closed":"45/2","closed_argmax":"1,1/2,2,1/2,1","envelope":"45/2","ok":true,"oracle":"22.500000000","s":"2"}\n',
    ),
    ("qp-check --s 1 --K 10 --a 4", 0, "closed=64 at 2,6,2\noracle=64.000000000\nok\n"),
    (
        "qp-check --s 3 --K 8 --a 4 --format json",
        0,
        '{"K":"8","a":"4","binary":"52","closed":"52","closed_argmax":"1,1,0,4,0,1,1","envelope":"52","ok":true,"oracle":"52.000000000","s":"3"}\n',
    ),
    ("qp-check --s 4 --K 5 --a 3", 0, "oracle=23.700000000\nbinary=22 envelope=45/2\nok\n"),
    (
        "qp-check --s 1 --K 5 --a 3 --format json",
        0,
        '{"K":"5","a":"3","binary":null,"closed":"21","closed_argmax":"3/2,2,3/2","envelope":null,"ok":true,"oracle":"21.000000000","s":"1"}\n',
    ),
    (
        "qp-check --s 2 --K 5 --a 0",
        0,
        "closed=0 at 0,0,5,0,0\noracle=0.000000000\nbinary=0 envelope=0\nok\n",
    ),
    (
        "qp-check --s 2 --K 5 --a 3 --resolution 7 --format json",
        0,
        '{"K":"5","a":"3","binary":"22","closed":"45/2","closed_argmax":"1,1/2,2,1/2,1","envelope":"45/2","ok":true,"oracle":"22.500000000","s":"2"}\n',
    ),
    ("qp-check --s 2 --K 5 --a 3 --resolution 0", 2, ""),
    (
        "table --s 1 --epsilon 1/15 --format json",
        0,
        '{"coefficient":"9.92","epsilon":"1/15","min_n":"1591","s":"1"}\n',
    ),
    ("table --s 2 --epsilon 1/15", 0, "1201, 8.80\n"),
    (
        "table --s 2 --epsilon 1/10 --format csv",
        0,
        "s,epsilon,min_n,coefficient\n2,1/10,501,6.12\n",
    ),
    (
        "table --s 1 --epsilon 1/10 --format json",
        0,
        '{"coefficient":"6.84","epsilon":"1/10","min_n":"641","s":"1"}\n',
    ),
    ("table --s 1 --epsilon 3/2", 2, ""),
    ("equivalence-check --n 2 --t 1 --s 1 --format json", 0, '{"equal":true,"witness":null}\n'),
    ("equivalence-check --n 3 --t 1 --s 2", 0, "equal\n"),
    ("equivalence-check --n 2 --t 2 --s 1 --format json", 0, '{"equal":true,"witness":null}\n'),
    ("equivalence-check --n 3 --t 1 --s 2 --pair-cap 10", 2, ""),
]


@pytest.mark.parametrize("argv, code, expected", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_golden_output(capsys, argv, code, expected):
    got_code, out, _ = run_cli(capsys, *argv.split())
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (got_code, out) == (code, expected)
