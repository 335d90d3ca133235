"""Command line front end: SetFile parsing, JSON reports, exit codes."""

from __future__ import annotations

import io
import json
import os
import runpy
import shlex
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
from subuniform import cli
from subuniform.cli import parse_set_file, run_command, serialize_set_file

from conftest import full_set, rand_below, random_subset, ref_serialize_set_file, words


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


def test_serialize_matches_digit_reference():
    stream = words(107)
    for p, top in ((2, 8), (3, 5)):
        for n in range(1, top + 1):
            for points in (
                random_subset(stream, p, n, Fraction(1, 2)),
                full_set(p, n),
                PointSet.empty(p, n),
            ):
                assert serialize_set_file(points) == ref_serialize_set_file(points)


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
    assert parse_set_file("p=2 n=2\n10\n").bits == 1 << 2


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: missing header 'p=<2|3> n=<int>'"),
        ("x=2 n=2\n", "line 1: expected header 'p=<2|3> n=<int>'"),
        ("p=2\n", "line 1: expected header 'p=<2|3> n=<int>'"),
        ("p=a n=2\n", "line 1: malformed header 'p=a n=2'"),
        # int() would read these as p = 2 and n = 3
        ("p=0_2 n=3\n", "line 1: malformed header 'p=0_2 n=3'"),
        ("p=2 n=+3\n", "line 1: malformed header 'p=2 n=+3'"),
        # length is checked before digit values
        ("p=2 n=2\n102\n", "line 2: vector '102' has length 3, expected 2"),
        ("p=2 n=2\n12\n", "line 2: vector '12' has digits not in F_2"),
        ("p=2 n=2\n1x\n", "line 2: vector '1x' has digits not in F_2"),
        ("p=2 n=2\n01\n01\n", "line 3: duplicate vector '01' (first at line 2)"),
        # lines end at \n, \r\n and \r only, as in text mode
        ("p=2 n=2\n10\x0c01\n", "line 2: vector '10\\x0c01' has length 5, expected 2"),
        ("p=2 n=2\n10\x0c01\n1\n", "line 2: vector '10\\x0c01' has length 5, expected 2"),
        ("p=2 n=2\n10\u202801\n", "line 2: vector '10\\u202801' has length 5, expected 2"),
        ("p=2 n=2\r01\r\n1\r", "line 3: vector '1' has length 1, expected 2"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(InputError) as excinfo:
        parse_set_file(text)
    assert str(excinfo.value) == message


def _mutate(stream, p: int, text: str, kind: str) -> str:
    """One departure from the canonical layout, at a random place."""
    lines = text.splitlines()
    n = int(lines[0].split("n=")[1])
    if len(lines) == 1 and kind not in ("empty", "blank", "comment"):
        lines.append("0" * n)  # the mutation needs a vector to act on
    at = 1 + rand_below(stream, max(len(lines) - 1, 1))  # a vector line
    if kind == "comment":
        lines.insert(rand_below(stream, len(lines) + 1), "# note")
    elif kind == "trailing comment":
        lines[at] += " # note"
    elif kind == "blank":
        lines.insert(rand_below(stream, len(lines) + 1), "")
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "line separator":
        # splitlines breaks here, text mode does not
        sep = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"[rand_below(stream, 8)]
        j = rand_below(stream, n + 1)
        lines[at] = lines[at][:j] + sep + lines[at][j:]
    elif kind == "leading space":
        lines[at] = " " + lines[at]
    elif kind == "trailing space":
        lines[at] += " "
    elif kind == "short":
        lines[at] = lines[at][:-1]
    elif kind == "long":
        lines[at] += "0"
    elif kind == "digit":
        j = rand_below(stream, n)
        lines[at] = lines[at][:j] + str(p) + lines[at][j + 1 :]
    elif kind == "duplicate":
        lines.insert(at + rand_below(stream, len(lines) - at + 1), lines[at])
    elif kind == "empty":
        lines = lines[:1]
    elif kind == "header on line 2":
        lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(lines) + "\n"


def _outcome(parse, text: str):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


MUTATIONS = (
    "comment", "trailing comment", "blank", "crlf", "line separator",
    "leading space", "trailing space", "short", "long", "digit",
    "duplicate", "empty", "header on line 2",
)


def _text_mode_lines(text: str) -> list[str]:
    """The lines that a file opened in text mode would read."""
    return [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]


def test_parse_routes_agree_on_mutated_canonical_text():
    # the bulk route either returns what the line loop would or leaves
    # the text to it, so every result and every message is the loop's
    stream = words(108)
    for p, top in ((2, 8), (3, 4)):
        for n in range(1, top + 1):
            for kind in MUTATIONS:
                points = random_subset(stream, p, n, Fraction(1, 2))
                text = _mutate(stream, p, serialize_set_file(points), kind)
                expected = _outcome(lambda t: cli._parse_lines(_text_mode_lines(t)), text)
                assert _outcome(parse_set_file, text) == expected, (kind, text)


def test_canonical_text_takes_the_bulk_route(monkeypatch, capsys, tmp_path):
    def refuse(lines):
        raise AssertionError("canonical text reached the line loop")

    stream = words(109)
    cases = [PointSet.empty(2, 3), full_set(3, 2)]
    for p, top in ((2, 12), (3, 6)):
        for n in range(1, top + 1):
            cases.append(random_subset(stream, p, n, Fraction(1, 2)))
    out = tmp_path / "random.set"
    argv = ["gen-random", "--p", "2", "--n", "10", "--density", "1/3", "--seed", "5"]
    assert run(capsys, argv + ["--out", str(out)])[0] == 0
    monkeypatch.setattr(cli, "_parse_lines", refuse)
    for points in cases:
        assert parse_set_file(serialize_set_file(points)) == points
    expected = random_point_set(2, 10, Fraction(1, 3), seed=5)
    assert parse_set_file(out.read_text()) == expected


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


def test_oracle_negative_budget_is_an_input_error(capsys, set_path):
    path = set_path(PointSet.from_ranks(2, 4, [3, 5, 6]))
    oracle = ["oracle", "--set", path, "--max-codim", "2"]
    code, report, err = run(capsys, [*oracle, "--budget", "-1"])
    assert code == 2
    assert report is None
    assert err == "input error: budget must be at least 0, got -1\n"
    # a budget of 0 is valid and too small: an overrun, not a bad flag
    code, report, err = run(capsys, [*oracle, "--budget", "0"])
    assert code == 3
    assert report is None
    assert err.startswith("budget exceeded:")


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


@pytest.mark.parametrize(
    "argv", [["wht"], ["pipeline", "--eps", "1/4"]], ids=["wht", "pipeline"]
)
def test_set_file_not_utf8_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "bad.set"
    path.write_bytes(b"p=2 n=2\n0\xff\n")
    code, report, err = run(capsys, [argv[0], "--set", str(path)] + argv[1:])
    assert code == 2
    assert report is None
    assert err == (
        f"input error: cannot read set file {path}: "
        "not UTF-8 (byte 9: invalid start byte)\n"
    )


@pytest.mark.parametrize(
    "text",
    ["p=2 n=3\n101\n110\n", "# a comment\np=2 n=3\n\n101   # a member\n110\n"],
    ids=["canonical", "commented"],
)
def test_set_file_byte_order_mark_is_dropped(capsys, tmp_path, text):
    plain, marked = tmp_path / "plain.set", tmp_path / "marked.set"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert parse_set_file("\ufeff" + text) == parse_set_file(text)
    _, expect, _ = run(capsys, ["wht", "--set", str(plain)])
    code, report, err = run(capsys, ["wht", "--set", str(marked)])
    assert (code, err) == (0, "")
    assert report["exact"] == expect["exact"]


def test_set_file_byte_order_mark_keeps_byte_offsets_and_line_numbers(capsys, tmp_path):
    # the offset of a bad byte counts the mark's three bytes
    path = tmp_path / "bad.set"
    path.write_bytes(b"\xef\xbb\xbfp=2 n=2\n0\xff\n")
    code, _, err = run(capsys, ["wht", "--set", str(path)])
    assert code == 2
    assert err == (
        f"input error: cannot read set file {path}: "
        "not UTF-8 (byte 12: invalid start byte)\n"
    )
    # only one leading mark is dropped: one on a vector line is an error
    with pytest.raises(InputError, match="^line 2: "):
        parse_set_file("p=2 n=3\n\ufeff101\n")
    with pytest.raises(InputError, match="^line 1: "):
        parse_set_file("\ufeff\ufeffp=2 n=3\n101\n")


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


def test_reader_closing_early_keeps_exit_code():
    # the embedded 2^13-line set outgrows the pipe buffer, so the report's
    # print meets the closed pipe
    gen = ["gen-random", "--p", "2", "--n", "14", "--density", "1/2", "--seed", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "subuniform.cli", *gen],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert head == b'{\n  "comma'
    assert err == b""


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_block(heading, fence):
    """The first `fence` code block after `heading` in the README."""
    with open(README, encoding="utf-8") as f:
        after = f.read().split(f"\n{heading}\n", 1)[1]
    return after.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    commands = [
        shlex.split(line, comments=True)
        for line in readme_block("## Quick start", "sh").splitlines()
    ]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 4
    for argv in commands:
        assert argv[0] == "subuniform"
        proc = subprocess.run(
            [sys.executable, "-m", "subuniform.cli", *argv[1:]],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)["command"] == argv[1]


def test_readme_library_use_runs(capsys):
    code = readme_block("Library use mirrors the CLI:", "python")
    exec(compile(code, README, "exec"), {})
    assert capsys.readouterr().out


def run_script(name, flags):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def example_flags(name):
    """Flags of the first command under the script's `Example:` heading."""
    with open(os.path.join(SCRIPTS, name)) as f:
        lines = f.read().split("Example:", 1)[1].splitlines()
    argv = shlex.split(next(line for line in lines if line.strip()), comments=True)
    assert argv[:2] == ["python3", f"scripts/{name}"]
    return argv[2:]


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py"))
)
def test_script_example_runs(name):
    proc = run_script(name, example_flags(name))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-n", "8", "--long-run"],
        ["--min-n", "0"],
        ["--max-n", "5"],
        ["--min-n", "4", "--max-n", "2"],
    ],
)
def test_f3_scan_script_refuses_out_of_range_n(flags):
    # refused by argparse before any table row, not by a traceback
    proc = run_script("f3_scan.py", flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "flags", [["--d", "0"], ["--d", "-1"], ["--max-m", "0"], ["--max-m", "5"]]
)
def test_ramsey_search_script_refuses_bad_flags(flags):
    # refused by argparse before the table header, not by a traceback
    proc = run_script("ramsey_search.py", flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "30"],
        ["--eps", "0"],
        ["--density", "2"],
        ["--n", "6", "--max-codim", "9"],
        ["--n", "6", "--oracle-codim", "9"],
    ],
)
def test_pipeline_demo_refuses_out_of_range_input(flags):
    # refused by argparse before the set is drawn, not by a traceback
    proc = run_script("pipeline_demo.py", flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_pipeline_demo_budget_exceeded_exits_three(capsys, monkeypatch):
    # the search of test_search_budget_exceeded_exits_three, from the demo
    monkeypatch.setattr(ramsey, "SEARCH_BUDGET", 1000)
    demo = os.path.join(SCRIPTS, "pipeline_demo.py")
    monkeypatch.setattr(sys, "argv", [demo, "--n", "10", "--seed", "1", "--eps", "1/16"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(demo, run_name="__main__")
    assert excinfo.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: subset-sum search tried more than 1000")
    assert err.count("\n") == 1


def test_pipeline_demo_skips_an_oracle_past_its_budget():
    # codim <= 4 in F_2^9 holds 4,141,729 subspaces, past the demo's limit
    proc = run_script("pipeline_demo.py", ["--n", "9", "--seed", "3", "--oracle-codim", "4"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    last = proc.stdout.splitlines()[-1]
    assert last == "oracle skipped: scan of 4141729 subspaces exceeds budget 500000"
