"""Command line front end: SetFile parsing, JSON reports, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from subuniform import (
    Coset,
    GFVector,
    InputError,
    PointSet,
    enumerate_subspaces,
    leading_one_set,
    pipeline,
    random_point_set,
    ramsey,
    uniformity_sup,
)
from subuniform.cli import parse_set_file, run_command, serialize_set_file

from conftest import random_subset, words


def run(capsys, args):
    code = run_command(args)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


@pytest.fixture
def set_path(tmp_path):
    def write(points: PointSet, name: str = "points.set") -> str:
        path = tmp_path / name
        path.write_text(serialize_set_file(points))
        return str(path)

    return write


def half_minus_point() -> PointSet:
    return PointSet.from_ranks(2, 6, [r for r in range(64) if r & 32 and r != 33])


# ---------------------------------------------------------------------------
# SetFile format


def test_serialize_is_canonical():
    points = PointSet.from_ranks(2, 2, [2, 0])
    assert serialize_set_file(points) == "p=2 n=2\n00\n10\n"


def test_parse_round_trips_random_sets():
    stream = words(101)
    for p, n in ((2, 6), (3, 3)):
        for _ in range(5):
            points = random_subset(stream, p, n, Fraction(1, 2))
            assert parse_set_file(serialize_set_file(points)) == points


def test_parse_accepts_comments_blanks_and_any_order():
    text = "# leading comment\n\np=2 n=2\n10  # trailing comment\n00\n"
    points = parse_set_file(text)
    assert sorted(points.member_ranks()) == [0, 2]
    # first coordinate is the most significant digit of the rank
    assert parse_set_file("p=2 n=2\n10\n").contains_rank(2)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: missing header 'p=<2|3> n=<int>'"),
        ("x=2 n=2\n", "line 1: expected header 'p=<2|3> n=<int>'"),
        ("p=2\n", "line 1: expected header 'p=<2|3> n=<int>'"),
        ("p=a n=2\n", "line 1: malformed header 'p=a n=2'"),
        # length is checked before digit values
        ("p=2 n=2\n102\n", "line 2: vector '102' has length 3, expected 2"),
        ("p=2 n=2\n12\n", "line 2: vector '12' has digits not in F_2"),
        ("p=2 n=2\n1x\n", "line 2: vector '1x' has digits not in F_2"),
        ("p=2 n=2\n01\n01\n", "line 3: duplicate vector '01' (first at line 2)"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(InputError) as excinfo:
        parse_set_file(text)
    assert str(excinfo.value) == message


def test_parse_rejects_unsupported_field():
    with pytest.raises(InputError) as excinfo:
        parse_set_file("p=5 n=2\n")
    assert str(excinfo.value).startswith("line 1:")
    assert "5" in str(excinfo.value)


# ---------------------------------------------------------------------------
# report envelope


def test_envelope_shape_and_input_echo(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, report, err = run(capsys, ["uniformity", "--set", path, "--subspace-basis", "10,01"])
    assert code == 0 and err == ""
    assert list(report) == ["command", "inputs", "outcome", "exact", "approx", "timing_s"]
    assert report["command"] == "uniformity"
    assert report["outcome"] == "ok"
    # inputs echo the parsed flags, sorted, with unset options omitted
    assert report["inputs"] == {"set": path, "subspace_basis": "10,01"}
    assert report["timing_s"] >= 0


def test_exact_fields_are_deterministic_across_runs(capsys, set_path):
    path = set_path(random_point_set(2, 6, Fraction(1, 2), seed=5))
    reports = []
    for _ in range(2):
        code, report, _ = run(capsys, ["pipeline", "--set", path, "--eps", "1/4"])
        report.pop("timing_s")
        reports.append((code, report))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# subcommands, frozen outputs


def test_uniformity_full_space(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, report, _ = run(capsys, ["uniformity", "--set", path, "--subspace-basis", "10,01"])
    assert code == 0
    assert report["exact"] == {
        "subspace": {"dim": 2, "codim": 0, "basis": ["10", "01"]},
        "rep": "00",
        "sup_sq": "1/16",
        "witness_t": 1,
        "witness_r": "01",
        "density": "1/4",
    }
    assert report["approx"] == {"sup_sq": 0.0625, "density": 0.25}


def test_uniformity_canonicalizes_the_rep(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, report, _ = run(
        capsys,
        ["uniformity", "--set", path, "--subspace-basis", "01", "--rep", "11"],
    )
    assert code == 0
    assert report["exact"] == {
        "subspace": {"dim": 1, "codim": 1, "basis": ["01"]},
        "rep": "10",
        "sup_sq": "1/4",
        "witness_t": 1,
        "witness_r": "01",
        "density": "1/2",
    }


def test_increment_walk(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 3, [4, 5, 6, 7]))
    code, report, _ = run(capsys, ["increment", "--set", path, "--eps", "1/4"])
    assert code == 0
    assert report["exact"] == {
        "steps": [
            {
                "subspace": {"dim": 3, "codim": 0, "basis": ["100", "010", "001"]},
                "rep": "000",
                "density": "1/2",
                "witness_r": "100",
            },
            {
                "subspace": {"dim": 2, "codim": 1, "basis": ["010", "001"]},
                "rep": "100",
                "density": "1",
                "witness_r": None,
            },
        ],
        "step_count": 1,
        "final_codim": 1,
        "final_density": "1",
        "final_sup_sq": "0",
    }


def test_regularity_failure_exits_one(capsys, set_path):
    path = set_path(half_minus_point())
    code, report, _ = run(
        capsys,
        ["regularity", "--set", path, "--eps", "1/64", "--eta", "0", "--max-codim", "2"],
    )
    assert code == 1
    assert report["outcome"] == "verification_failure"
    exact = report["exact"]
    assert exact["succeeded"] is False
    assert exact["space"]["codim"] == 2
    assert exact["rounds"] == 2
    assert exact["good_fraction"] == "3/4"
    assert exact["bad_reps"] == ["100001"]
    assert exact["energy_trace"] == ["961/4096", "961/2048", "481/1024"]


def test_pipeline_success_report(capsys, set_path):
    half8 = PointSet.from_ranks(2, 8, [r for r in range(256) if r & 128])
    path = set_path(half8)
    code, report, _ = run(capsys, ["pipeline", "--set", path, "--eps", "1/4"])
    assert code == 0
    exact = report["exact"]
    assert exact["outcome"] == "success"
    assert (exact["d"], exact["buckets"]) == (3, 4)
    assert exact["attempt_depths"] == [3, 4]
    assert exact["V"]["codim"] == 1
    assert exact["W"]["codim"] == 4
    assert exact["colour"] == 0
    assert exact["xs_quotient"] == ["0001", "0010", "0100"]
    assert exact["xs_ambient"] == ["00010000", "00100000", "01000000"]
    assert exact["sup_sq"] == "0"
    assert exact["witness_r"] is None
    assert exact["bound_ok"] is True
    assert report["approx"] == {"sup_sq": 0.0}
    assert report["inputs"] == {
        "eps": "1/4",
        "eta": "1/8",
        "min_codim": 0,
        "set": path,
        "slack": 4,
    }


def test_pipeline_failure_exits_one(capsys, set_path):
    path = set_path(random_point_set(2, 4, Fraction(1, 2), seed=7))
    code, report, _ = run(capsys, ["pipeline", "--set", path, "--eps", "1/4"])
    assert code == 1
    assert report["outcome"] == "verification_failure"
    assert report["exact"]["outcome"] == "ramsey_failure"
    assert report["exact"]["V"] is None
    assert "sup_sq" not in report["exact"]


def test_oracle_report(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, report, _ = run(capsys, ["oracle", "--set", path, "--max-codim", "1"])
    assert code == 0
    assert report["exact"] == {
        "best_subspace": {"dim": 1, "codim": 1, "basis": ["10"]},
        "sup_sq": "0",
    }
    assert report["inputs"]["budget"] == 10**7


def test_oracle_budget_exceeded_exits_three(capsys, tmp_path):
    path = tmp_path / "big.set"
    path.write_text("p=2 n=20\n")
    code, report, err = run(capsys, ["oracle", "--set", str(path), "--max-codim", "4"])
    assert code == 3
    assert report is None
    assert err == (
        "budget exceeded: scan of 59972563453390883681 subspaces"
        " exceeds budget 10000000\n"
    )


def test_search_budget_exceeded_exits_three(capsys, set_path, monkeypatch):
    # without the budget this subset-sum search (d = 5) runs for hours
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 1000)
    path = set_path(random_point_set(2, 10, Fraction(1, 2), seed=1))
    code, report, err = run(capsys, ["pipeline", "--set", path, "--eps", "1/16"])
    assert code == 3
    assert report is None
    assert err.startswith(
        "budget exceeded: subset-sum search tried more than 1000 candidates;"
    )


def test_f3_verify_report(capsys):
    code, report, _ = run(capsys, ["f3-verify", "--n", "2"])
    assert code == 0
    assert report["exact"] == {
        "n": 2,
        "total_subspaces": 5,
        "all_passed": True,
        "min_sup_sq": "7/81",
        "lower_bound_sq": "1/12",
        "failures": [],
    }
    assert report["approx"] == {"min_sup_sq": 0.0864198}


def test_f3_verify_failure_exits_one(capsys, monkeypatch):
    # with a floor some subspaces of F_3^3 miss, the report lists them
    # and the command exits with the verification code
    floor = Fraction(1, 11)
    monkeypatch.setattr(pipeline, "LOWER_BOUND_SQ", floor)
    A = leading_one_set(3)
    below = [
        {"dim": k, "codim": 3 - k, "basis": [row.digits() for row in V.basis]}
        for k in range(1, 4)
        for V in enumerate_subspaces(3, 3, k)
        if uniformity_sup(A, Coset(V, GFVector.zero(3, 3))).sup_sq < floor
    ]
    code, report, _ = run(capsys, ["f3-verify", "--n", "3"])
    assert code == 1
    assert report["exact"]["all_passed"] is False
    assert report["exact"]["failures"] == below
    assert report["exact"]["lower_bound_sq"] == "1/11"
    assert below


def test_f3_verify_requires_long_run_flag(capsys):
    code, report, err = run(capsys, ["f3-verify", "--n", "5"])
    assert code == 2
    assert report is None
    assert err.startswith("input error:")
    assert "long_run" in err


def test_wht_binary_and_ternary(capsys, set_path, tmp_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, report, _ = run(capsys, ["wht", "--set", path])
    assert code == 0
    assert report["exact"] == {
        "p": 2,
        "n": 2,
        "scale": 4,
        "coefficients": [1, -1, -1, 1],
    }
    f3 = tmp_path / "f3.set"
    f3.write_text("p=3 n=2\n10\n")
    code, report, _ = run(capsys, ["wht", "--set", str(f3)])
    assert code == 0
    assert report["exact"] == {
        "p": 3,
        "n": 2,
        "scale": 9,
        "coefficients": [
            [1, 0], [1, 0], [1, 0],
            [-1, -1], [-1, -1], [-1, -1],
            [0, 1], [0, 1], [0, 1],
        ],
    }


def test_gen_random_writes_reproducible_sets(capsys, tmp_path):
    out = tmp_path / "random.set"
    code, report, _ = run(
        capsys,
        ["gen-random", "--p", "2", "--n", "6", "--density", "1/2",
         "--seed", "0", "--out", str(out)],
    )
    assert code == 0
    assert report["exact"]["out"] == str(out)
    assert "set_file" not in report["exact"]
    points = parse_set_file(out.read_text())
    assert points == random_point_set(2, 6, Fraction(1, 2), seed=0)
    # independent generator check: rank r joins when the r-th raw word is
    # below density * 2^64
    stream = words(0)
    expected = {r for r in range(64) if next(stream) < 1 << 63}
    assert set(points.member_ranks()) == expected
    assert report["exact"]["size"] == len(expected)
    assert report["exact"]["generator"] == "splitmix64"


def test_gen_random_embeds_set_file_without_out(capsys):
    code, report, _ = run(
        capsys,
        ["gen-random", "--p", "3", "--n", "2", "--density", "1/3", "--seed", "4"],
    )
    assert code == 0
    embedded = parse_set_file(report["exact"]["set_file"])
    assert embedded == random_point_set(3, 2, Fraction(1, 3), seed=4)


def test_gen_random_seeds_differ(capsys):
    sets = []
    for seed in ("0", "1"):
        _, report, _ = run(
            capsys,
            ["gen-random", "--p", "2", "--n", "8", "--density", "1/2", "--seed", seed],
        )
        sets.append(report["exact"]["set_file"])
    assert sets[0] != sets[1]


# ---------------------------------------------------------------------------
# error handling


def test_missing_set_file_exits_two(capsys):
    code, report, err = run(
        capsys, ["uniformity", "--set", "/no/such/file", "--subspace-basis", "1"]
    )
    assert code == 2
    assert report is None
    assert err.startswith("input error: cannot read set file /no/such/file")


def test_bad_rational_exits_two(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, _, err = run(capsys, ["increment", "--set", path, "--eps", "abc"])
    assert code == 2
    assert err.startswith("input error:")


def test_bad_basis_vector_exits_two(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 2, [3]))
    code, _, err = run(capsys, ["uniformity", "--set", path, "--subspace-basis", "1"])
    assert code == 2
    assert err == "input error: vector '1' has length 1, expected 2\n"
    code, _, err = run(capsys, ["uniformity", "--set", path, "--subspace-basis", ","])
    assert code == 2
    assert err == "input error: subspace basis must list at least one vector\n"


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as excinfo:
        run_command(["bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_command(["uniformity"])  # missing required flags
    assert excinfo.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "subuniform.cli", "f3-verify", "--n", "1"],
        capture_output=True,
        text=True,
        # the child imports the package from where this process found it
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["exact"]["min_sup_sq"] == "1/9"


F3_SCAN = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "f3_scan.py")


@pytest.mark.parametrize(
    "flags", [["--max-n", "7", "--long-run"], ["--min-n", "0"], ["--max-n", "5"]]
)
def test_f3_scan_script_refuses_out_of_range_n(flags):
    # refused by argparse before any table row, not by a traceback
    proc = subprocess.run(
        [sys.executable, F3_SCAN, *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
