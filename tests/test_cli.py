"""The command line in-process: golden outputs and usage errors.

The files under ``tests/golden`` hold the stdout of README commands on the
shipped fixtures; ``cases.json`` lists each command, its stdin fixture (or
none, or ``stdin_case``: the stdout of another case, as in a shell pipe) and
its exit code.  Every elimination sits under these commands, so a change to
any kernel must reproduce them byte for byte.
"""

import io
import json
import re
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gmepw import cli
from gmepw import io as gio
from gmepw.correspondence import A1_ZERO, LagrangianData, apply_frame
from gmepw.exterior import l3v5_subspace
from gmepw.fixtures import fivefold_lagrangian, sixfold_special
from gmepw.linalg import Matrix

import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
CASES_BY_NAME = {c["name"]: c for c in CASES}


def run_main(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_case(case, monkeypatch, capsys):
    if "stdin_case" in case:
        stdin_text = run_case(CASES_BY_NAME[case["stdin_case"]], monkeypatch, capsys)[1]
    elif case["stdin"] is None:
        stdin_text = ""
    else:
        stdin_text = (ROOT / "fixtures" / case["stdin"]).read_text(encoding="utf-8")
    return run_main(case["argv"], stdin_text, monkeypatch, capsys)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch, capsys):
    code, out, _ = run_case(case, monkeypatch, capsys)
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["epw-line", "--kind", "y", "--dir", "0,1,1,-2,1,1"],
        ["epw-line", "--kind", "z", "--dir", "1,1,0,0,0,1"],
        ["sigma"],
    ],
    ids=["epw-line-y-without-base", "epw-line-z-without-plane", "sigma-without-point-or-plane"],
)
def test_missing_flag_is_usage_error(argv, monkeypatch, capsys):
    # the flag check comes before stdin is read, so no document is needed
    code, out, err = run_main(argv, "", monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["epw-line", "--kind", "y", "--base", "1,0,0,0,0,0", "--dir", "2,0,0,0,0,0"],
        ["epw-line", "--kind", "y", "--base", "0,0,0,0,0,0", "--dir", "0,1,0,0,0,0"],
        ["epw-line", "--kind", "z", "--plane", "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0",
         "--dir", "1,-1,3,0,0,0"],
    ],
    ids=["y-parallel", "y-zero-base", "z-constant-pencil"],
)
def test_degenerate_line_is_input_error(argv, monkeypatch, capsys):
    stdin_text = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    code, out, err = run_main(argv, stdin_text, monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize(
    "base, direction, message",
    [
        ("1,2,0,1,3,1", "2,4,0,2,6,2", "--base and --dir are dependent"),
        ("1,2,0,1,3,1", "0,0,0,0,0,0", "--base and --dir are dependent"),
        ("1,2,0,1,3,0", "0,1,1,-2,1,0", "the line lies inside the hyperplane"),
    ],
    ids=["disc-line-parallel", "disc-line-zero-dir", "disc-line-in-hyperplane"],
)
def test_degenerate_disc_line_is_input_error(base, direction, message, monkeypatch, capsys):
    stdin_text = (ROOT / "fixtures" / "fivefold.gm.json").read_text(encoding="utf-8")
    argv = ["disc-line", "--base", base, "--dir", direction]
    code, out, err = run_main(argv, stdin_text, monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["epw-point", "--point", "0,0,0,0,0,0"],
        ["epw-dual-point", "--covector", "0,0,0,0,0,0"],
        ["sigma", "--point", "0,0,0,0,0,1"],
        ["sigma", "--plane", "1,0,0,0,0,0;0,1,0,0,0,0;0,0,0,0,0,1"],
        ["fib1", "--point", "0,0,0,0,0,1"],
        ["fib1", "--point", "0,0,0,0,0,0"],
        ["fib2", "--plane", "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,1"],
        ["epw-point", "--point", "1e5000,0,0,0,0,0"],
        ["hyperplane-update", "--eta0", "0,0,0,0,0,0,0,0,0,0"],
        ["sigma", "--point="],
    ],
    ids=["epw-point-zero", "epw-dual-point-zero", "sigma-point-off-hyperplane",
         "sigma-plane-off-hyperplane", "fib1-point-off-hyperplane", "fib1-point-zero",
         "fib2-plane-off-hyperplane", "epw-point-huge-exponent", "hyperplane-update-zero-eta0",
         "sigma-empty-point"],
)
def test_malformed_point_is_input_error(argv, monkeypatch, capsys):
    stdin_text = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    code, out, err = run_main(argv, stdin_text, monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: --")


def test_sigma_with_point_and_plane_is_usage_error(monkeypatch, capsys):
    for point in ["1,0,0,0,0,0", ""]:  # an empty --point is given all the same
        argv = ["sigma", f"--point={point}", "--plane=1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0"]
        code, out, err = run_main(argv, "", monkeypatch, capsys)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "give one of --point or --plane" in err


PLANE_ROWS = ["1,0,0,0,0,0", "0,1,0,0,0,0", "0,0,1,0,0,0", "0,0,0,1,0,0"]


@pytest.mark.parametrize("command", [["zeta-plane", "--plane"], ["fib2", "--plane"], ["sigma", "--plane"],
                                     ["epw-line", "--kind", "z", "--dir", "1,1,0,0,0,1", "--plane"]],
                         ids=lambda c: "-".join(c[:3:2]))
@pytest.mark.parametrize(
    "rows, message",
    [
        (PLANE_ROWS[:2], "--plane: expected 3 vectors u1;u2;u3, got 2"),
        (PLANE_ROWS, "--plane: expected 3 vectors u1;u2;u3, got 4"),
        (PLANE_ROWS[:1] * 3, "--plane: vectors span dimension 1, expected 3"),
    ],
    ids=["two-vectors", "four-vectors", "three-dependent-vectors"],
)
def test_a_plane_is_three_independent_vectors(command, rows, message, monkeypatch, capsys):
    stdin_text = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    code, out, err = run_main(command + [";".join(rows)], stdin_text, monkeypatch, capsys)
    assert (code, out, err) == (cli.EXIT_INPUT, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["epw-line", "--kind", "y", "--base", "1,2,0,1,-1,3", "--dir", "0,1,1,-2,1,1",
          "--plane", "1,0,0,0,1,0;0,1,0,-1,0,2;0,0,1,1,2,0"], "--plane does not go with --kind y"),
        (["epw-line", "--kind", "z", "--plane", "1,0,0,0,1,0;0,1,0,-1,0,2;0,0,1,1,2,0",
          "--dir", "1,1,0,0,0,1", "--base", "1,2,0,1,-1,3"], "--base does not go with --kind z"),
    ],
    ids=["y-with-plane", "z-with-base"],
)
def test_epw_line_with_the_other_kinds_flag_is_usage_error(argv, message, monkeypatch, capsys):
    # like sigma with --point and --plane: the flag check comes before stdin is read
    code, out, err = run_main(argv, "", monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert message in err


def test_boolean_scalar_is_input_error(monkeypatch, capsys):
    doc = json.loads((ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8"))
    doc["payload"]["A"]["basis"][0][0] = True
    code, out, err = run_main(["dim-report"], json.dumps(doc), monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert "input error" in err


def _hostile_input(tmp_path, case):
    if case == "directory":
        return str(tmp_path)
    path = tmp_path / "doc.json"
    if case == "undecodable":
        path.write_bytes(b"\xff" + (ROOT / "fixtures" / "fivefold.gm.json").read_bytes())
    elif case == "huge-integer":
        # json.loads raises a plain ValueError past the interpreter's digit limit
        text = '{"kind": "gm_data", "version": "1", "payload": {"n": 1' + "0" * 5000 + "}}"
        path.write_text(text, encoding="utf-8")
    else:
        path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", ["directory", "undecodable", "deeply-nested", "huge-integer"])
def test_hostile_input_file_is_input_error(case, tmp_path, monkeypatch, capsys):
    argv = ["validate", "--input", _hostile_input(tmp_path, case)]
    code, out, err = run_main(argv, "", monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error")


def _framed(frame) -> str:
    doc = json.loads((ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8"))
    doc["payload"]["frame"] = [[gio.format_rat(x) for x in row] for row in frame.data]
    return json.dumps(doc)


def test_singular_frame_is_input_error(monkeypatch, capsys):
    code, out, err = run_main(["dim-report"], _framed(oracles.zero(6, 6)), monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: lagrangian_data.frame")


@pytest.mark.parametrize("command", ["dim-report", "dualize"])
def test_frame_is_applied_as_apply_frame_does(command, monkeypatch, capsys):
    shear = [[int(i == j) for j in range(6)] for i in range(6)]
    shear[5][0] = 1  # e1 -> e1 + e6
    moved = LagrangianData(a=apply_frame(fivefold_lagrangian().a, shear), a1=A1_ZERO)
    code, out, _ = run_main([command], _framed(Matrix(shear)), monkeypatch, capsys)
    assert code == cli.EXIT_OK
    assert out == run_main([command], gio.emit(gio.Document("lagrangian_data", moved)), monkeypatch, capsys)[1]


@pytest.mark.parametrize("name", ["fib1", "fib2", "dualize"])
def test_output_file_holds_the_golden_bytes(name, tmp_path, monkeypatch, capsys):
    case = CASES_BY_NAME[name]
    path = tmp_path / "out"
    code, out, _ = run_case({**case, "argv": case["argv"] + ["--output", str(path)]}, monkeypatch, capsys)
    assert code == case["exit"]
    assert out == ""
    assert path.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_fixture_list_output_file_holds_the_whole_listing(tmp_path, monkeypatch, capsys):
    listing = run_main(["fixture", "--list"], "", monkeypatch, capsys)[1]
    assert listing.count("\n") == 8
    path = tmp_path / "list"
    assert run_main(["fixture", "--list", "--output", str(path)], "", monkeypatch, capsys) == (0, "", "")
    assert path.read_text(encoding="utf-8") == listing


def test_a_reused_parser_keeps_nothing_of_the_last_call(tmp_path, monkeypatch, capsys):
    # cli.main builds each parser once per process: no flag of one call may reach the next
    lag = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    golden = {name: (GOLDEN / f"{name}.out").read_bytes().decode("utf-8") for name in CASES_BY_NAME}
    fib1, epw_line_y = CASES_BY_NAME["fib1"]["argv"], CASES_BY_NAME["epw_line_y"]["argv"]
    two_points = run_main(fib1 + ["--point", "1,0,0,0,0,0"], lag, monkeypatch, capsys)[1]
    assert two_points.count("\r\n") == 3
    assert run_main(fib1, lag, monkeypatch, capsys) == (0, golden["fib1"], "")
    assert run_main(epw_line_y + ["--seed", "5"], lag, monkeypatch, capsys)[0] == 0
    assert run_main(epw_line_y, lag, monkeypatch, capsys) == (0, golden["epw_line_y"], "")
    lagrangian = run_case(CASES_BY_NAME["to_lagrangian"], monkeypatch, capsys)[1]
    a1_one = run_main(["from-lagrangian", "--a1", "1"], lagrangian, monkeypatch, capsys)
    assert a1_one[0] == 0 and a1_one[1] != golden["round_trip"]
    assert run_main(["from-lagrangian"], lagrangian, monkeypatch, capsys) == (0, golden["round_trip"], "")
    path = tmp_path / "out"
    assert run_main(["dualize", "--output", str(path)], lag, monkeypatch, capsys) == (0, "", "")
    assert run_main(["dualize"], lag, monkeypatch, capsys) == (0, golden["dualize"], "")
    assert path.read_bytes().decode("utf-8") == golden["dualize"]


def test_golden_output_again_in_reverse_order(monkeypatch, capsys):
    # a second pass over every case on the parsers the first built
    for case in CASES + CASES[::-1]:
        code, out, _ = run_case(case, monkeypatch, capsys)
        assert code == case["exit"], case["name"]
        assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes(), case["name"]


@pytest.mark.parametrize("argv", [["to-lagrangian"], ["opposite"], ["hull-sample", "--seed", "3"]])
def test_kernel_row_off_the_wedge_identity_is_violation(argv, monkeypatch, capsys):
    # q(e1)(w1, w11) perturbed symmetrically: the kernel vector w11 of mu
    # pairs with w1 under q(e1), so q(v)(k, .) depends on v off e6; the
    # scalar q(v)(k, k) does not see it
    doc = json.loads(gio.emit(gio.Document("gm_data", sixfold_special())))
    q1 = doc["payload"]["q"][0]
    q1[0][10] = q1[10][0] = str(Fraction(q1[0][10]) + 1)
    code, out, err = run_main(argv, json.dumps(doc), monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("violation: ")


def test_output_to_a_directory_is_input_error(tmp_path, monkeypatch, capsys):
    stdin_text = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    code, out, err = run_main(["dualize", "--output", str(tmp_path)], stdin_text, monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error")


def test_z_pencil_uses_the_rows_as_given(monkeypatch, capsys):
    # the second row is not in RREF; the pencil is span(u1, u2, u3 + t dir)
    # for the rows typed, not for the echelon basis of their span
    rows = ["1,0,0,0,1,0", "0,1,1,0,2,2", "0,0,1,1,2,0"]
    argv = ["epw-line", "--kind", "z", "--plane", ";".join(rows), "--dir", "1,1,0,0,0,1"]
    stdin_text = (ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8")
    code, out, _ = run_main(argv, stdin_text, monkeypatch, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["poly"] == ["81", "-216", "216", "-96", "16"]
    assert payload["line"]["base"] == [r.split(",") for r in rows]


def test_selftest_passes(monkeypatch, capsys):
    code, out, _ = run_main(["selftest"], "", monkeypatch, capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[-1] == "12/12 checks passed"


# the selftest report, one line per check and the tally, less the timings
SELFTEST_REPORT = [f"PASS  {name:40s} {detail}" for name, detail in [
    ("fixtures validate", "4 fixtures valid"),
    ("quadric correspondence", "quadric correspondence exact on 10 Lagrangians in dims 4,6,8,20"),
    ("round trips", "round trips exact on 4 fixtures both ways"),
    ("kernel and stratum identity", "corank = stratum and pointwise discriminant = sextic on 4 fixtures"),
    ("dimension formula", "dimension formula incl. the odd-tag shift"),
    ("degree certificates", "1 sextic line and 1 quartic pencil certificates"),
    ("discriminant division", "exact hyperplane-power division, quotient degree <= 6, 1 lines x 4 fixtures"),
    ("duality suite", "orthogonal involution, 10 hyperplane and 10 plane dualities, 12 engineered levels >= 2"),
    ("fibration two path", "16 two-path agreements plus engineered exceptional points"),
    ("hyperplane updates", "10 hyperplane updates: meet dim 9 and Lagrangian"),
    ("hull sampling", "10 hull samples per ordinary fixture satisfy all hyperplane quadrics"),
    ("sigma fixture form", "distinguished rank-4 form present"),
]] + ["12/12 checks passed"]


def untimed(text: str) -> list[str]:
    return [re.sub(r" \(\d+\.\d\ds\)$", "", line) for line in text.splitlines()]


def test_selftest_report_save_timings(monkeypatch, capsys):
    code, out, err = run_main(["selftest"], "", monkeypatch, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert untimed(out) == SELFTEST_REPORT


@pytest.mark.parametrize("fault", [False, True], ids=["passing", "planted-fault"])
def test_selftest_writes_its_report_to_the_output_path(fault, tmp_path, monkeypatch, capsys):
    from gmepw import selftest

    if fault:
        level = selftest.y_dual_stratum
        monkeypatch.setattr(selftest, "y_dual_stratum", lambda a, v5p: level(a, v5p) + 1)
    path = tmp_path / "report.txt"
    code, out, err = run_main(["selftest", "-o", str(path)], "", monkeypatch, capsys)
    assert (out, err) == ("", "")
    lines = untimed(path.read_text(encoding="utf-8"))
    if fault:
        assert code == cli.EXIT_VIOLATION
        assert lines[-1] == "11/12 checks passed" and any(line.startswith("FAIL  duality suite") for line in lines)
    else:
        assert code == cli.EXIT_OK
        assert lines == SELFTEST_REPORT


def test_from_lagrangian_without_gm_variety_is_violation(monkeypatch, capsys):
    # A = the cube of the hyperplane meets it in dimension 10: n = 5 - 10 < 0,
    # and n = 6 - 10 < 0 with the odd tag 1
    doc = gio.emit(gio.Document("lagrangian_data", LagrangianData(a=l3v5_subspace(), a1=A1_ZERO)))
    for argv, n in ((["from-lagrangian"], -5), (["from-lagrangian", "--a1", "1"], -4)):
        code, out, err = run_main(argv, doc, monkeypatch, capsys)
        assert code == cli.EXIT_VIOLATION
        assert out == ""
        assert err.startswith(f"violation: no GM variety: the dimension formula gives n = {n} < 0")


def test_selftest_reports_a_planted_fault(monkeypatch, capsys):
    from gmepw import selftest

    level = selftest.y_dual_stratum
    monkeypatch.setattr(selftest, "y_dual_stratum", lambda a, v5p: level(a, v5p) + 1)
    code, out, _ = run_main(["selftest"], "", monkeypatch, capsys)
    assert code == cli.EXIT_VIOLATION
    assert "FAIL  duality suite" in out
    assert out.splitlines()[-1] == "11/12 checks passed"


# the same fault in a fresh interpreter under -O, which strips assert statements
PLANTED_FAULT = """
import sys
import gmepw.epw as epw
level = epw.y_dual_stratum
epw.y_dual_stratum = lambda a, v5p: level(a, v5p) + 1
from gmepw import cli
sys.exit(cli.main(["selftest"]))
"""


def test_selftest_reports_a_planted_fault_under_optimize():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_FAULT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == cli.EXIT_VIOLATION, proc.stdout + proc.stderr
    assert "FAIL  duality suite" in proc.stdout


GM_COMMANDS = [["validate"], ["disc-line", "--base=1,0,2,-1,1,2", "--dir=0,1,1,3,-2,4"], ["hull-sample", "--seed", "3"],
               ["to-lagrangian"], ["opposite"]]


def test_document_commands_build_no_integer_view_from_fractions(monkeypatch, capsys):
    # the integer view of parsed and constructed GM data comes from the
    # integer rows the reader and the constructions have: no command here
    # builds GM data from Fraction entries, which the GMData constructor
    # clears with over_lcd
    from gmepw import gm

    over_lcd = gm.over_lcd

    def integer_rows_only(blocks):
        blocks = list(blocks)
        if any(type(x) is not int for rows, _ in blocks for r in rows for x in r):
            raise AssertionError("integer view built from Fraction entries")
        return over_lcd(blocks)

    monkeypatch.setattr(gm, "over_lcd", integer_rows_only)
    gm_docs = sorted((ROOT / "fixtures").glob("*.gm.json"))
    lag_docs = sorted((ROOT / "fixtures").glob("*.lag.json"))
    assert len(gm_docs) == 4 and len(lag_docs) == 2
    runs = [(argv, path) for path in gm_docs for argv in GM_COMMANDS]
    runs += [(argv, path) for path in lag_docs for argv in (["from-lagrangian"], ["from-lagrangian", "--a1", "1"])]
    for argv, path in runs:
        code, out, err = run_main(argv, path.read_text(encoding="utf-8"), monkeypatch, capsys)
        assert (code, err) == (cli.EXIT_OK, ""), (argv, path.name)
        assert out


LAG_COMMANDS = [["dualize"], ["dim-report"], ["from-lagrangian"], ["hyperplane-update", "--eta0=1,0,2,0,-1,0,0,3,0,1"],
                ["epw-point", "--point=1,2,0,-1,1,1"]]


def test_document_commands_build_no_fraction_matrix(monkeypatch, capsys):
    # GM and Lagrangian documents are read into integer rows and written
    # from them: no command here builds a Fraction matrix from integer rows
    # (GMData's mu and q, a Subspace's Fraction RREF, an rref or inverse),
    # and each writes what it writes without the refusal in place
    from gmepw.linalg import Matrix

    runs = [(argv, path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "fixtures").glob("*.json"))
            for argv in (GM_COMMANDS if path.name.endswith(".gm.json") else LAG_COMMANDS)]
    assert len(runs) == 4 * len(GM_COMMANDS) + 2 * len(LAG_COMMANDS)
    expected = [run_main(argv, text, monkeypatch, capsys) for argv, text in runs]

    def refuse(*args):
        raise AssertionError("Fraction matrix built")

    monkeypatch.setattr(Matrix, "from_int_rows", refuse)
    for (argv, text), before in zip(runs, expected):
        got = run_main(argv, text, monkeypatch, capsys)
        assert got == before and got[0] == cli.EXIT_OK and got[1], argv


def test_disc_line_on_n_zero_data(monkeypatch, capsys):
    # n = 0: dis = det * lambda, here for lambda = -2 + 3 t
    from gmepw.polynomials import Poly

    w = 5
    forms = [[0, 0, 0, 0, 0, 1], [1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 2], [2, 0, -1, 2, 1, 3], [1, -1, 2, 0, 1, -2]]
    q = [[[str(forms[k][i]) if k == j else "0" for j in range(w)] for k in range(w)] for i in range(6)]
    doc = {"kind": "gm_data", "version": "1",
           "payload": {"n": 0, "mu": [["0"] * w for _ in range(10)], "q": q, "epsilon": "1"}}
    argv = ["disc-line", "--base=1,0,2,-1,1,-2", "--dir=0,1,1,3,-2,3"]
    code, out, err = run_main(argv, json.dumps(doc), monkeypatch, capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    rep = gio.parse(out).payload
    det, dis = (Poly([Fraction(c) for c in rep[key]]) for key in ("det_poly", "dis_poly"))
    assert dis == det * Poly([-2, 3])
    assert (rep["plucker_mult"], rep["mult_exceeds_expected"]) == (1, True)
