"""Document round trips, diagnostics, and the command-line surface."""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmepw import io as gio
from gmepw.correspondence import LagrangianData
from gmepw.fixtures import (
    all_gm_fixtures,
    all_lagrangian_fixtures,
    fivefold,
    fivefold_lagrangian,
    sixfold_special,
)
from gmepw.gm import GMData, GmError, classify, validate
from gmepw.io import Document, DocumentError
from gmepw.linalg import Matrix, Subspace

import oracles
from oracles import INTEGER_TOKENS

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "gmepw.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_rational_formatting():
    assert gio.format_rat(Fraction(3)) == "3"
    assert gio.format_rat(Fraction(-2, 5)) == "-2/5"
    assert gio.parse_rat("7/2") == Fraction(7, 2)
    with pytest.raises(DocumentError):
        gio.parse_rat("1/0")
    with pytest.raises(DocumentError):
        gio.parse_rat("x")


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rat_rejects_json_booleans(flag):
    # bool is an int subclass; JSON true/false must not read as 1/0
    with pytest.raises(DocumentError):
        gio.parse_rat(flag)


@pytest.mark.parametrize(
    "tok",
    ["1e1001", "1E+1001", "-2.5e-1001", "1e5000", "3e1_001", " " * 10_000 + "1"],
    ids=["e1001", "E+1001", "e-1001", "e5000", "e1_001", "10001-chars"],
)
def test_parse_rat_caps_exponents_and_length(tok):
    # each of these builds quickly with Fraction; the caps reject them before
    # a token such as 1e999999999 can build a billion-digit integer
    with pytest.raises(DocumentError):
        gio.parse_rat(tok)


@pytest.mark.parametrize("tok", ["1e1000", "-7/3", "1.5e-1000", " 12 "])
def test_parse_rat_accepts_tokens_within_the_caps(tok):
    assert gio.parse_rat(tok) == Fraction(tok)


def parse_outcome(parse, token):
    try:
        value = parse(token, "scalar")
    except DocumentError as exc:
        return "error", str(exc)
    assert type(value) is Fraction
    return "value", value


RAT_TOKENS = st.one_of(
    st.sampled_from(INTEGER_TOKENS + ["-+5", "+-5", "1__0", "_1", "1_", "- 5", "٣٤", "-٣", "²", "1.0", "1/1",
                                      "0x10"]),
    st.text(alphabet="0123456789+-_ /e.٣\t", max_size=12),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from([7, -3, 0, True, None, 2.5, [], {}]),
)


@given(RAT_TOKENS)
@settings(max_examples=300, deadline=None)
def test_parse_rat_reads_integer_tokens_as_the_fraction_path_does(token):
    # same Fraction, or the same DocumentError text, as Fraction(str)
    assert parse_outcome(gio.parse_rat, token) == parse_outcome(oracles.parse_rat, token)


@pytest.mark.parametrize("token", INTEGER_TOKENS)
def test_parse_rat_integer_edge_tokens(token):
    assert parse_outcome(gio.parse_rat, token) == parse_outcome(oracles.parse_rat, token)


SLASH_TOKENS = ["2/4", "-0/5", "007/014", "1/0", "+1/2", "1/-2", " 1/2", "1/2 ", "1_0/3", "\u0661/\u0663",
                "-\u0664/\u0662", "6/3", "-6/4", "5/", "/5", "-/5", "1/2/3", "9" * 40 + "/" + "6" * 40,
                "1" + "0" * 4300 + "/3", "3/1" + "0" * 4300]


@pytest.mark.parametrize("token", SLASH_TOKENS, ids=[repr(t)[:20] for t in SLASH_TOKENS])
def test_parse_rat_slash_tokens(token):
    # the int path of digits over digits, and the tokens left to Fraction(str)
    assert parse_outcome(gio.parse_rat, token) == parse_outcome(oracles.parse_rat, token)
    assert reader_matches_parse_rat(token)


def test_reader_builds_no_fraction_for_integer_ratio_tokens(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built for a ratio of integers")

    monkeypatch.setattr(gio, "Fraction", refuse)
    rows, den = gio.parse_matrix([["2/4", "-0/5", "007/014", "-6/4"], ["1/3", "6/3", "\u0661/\u0663", "0"]])
    assert (rows, den) == ([[3, 0, 3, -9], [2, 12, 2, 0]], 6)


def gm_payload_with_n(n):
    w = max(n + 5, 0)
    zero = lambda r, c: [["0"] * c for _ in range(r)]  # noqa: E731
    return {"n": n, "mu": zero(10, w), "q": [zero(w, w) for _ in range(6)]}


@pytest.mark.parametrize("n", [-1, -3, True])
def test_parse_gm_data_rejects_negative_or_boolean_n(n):
    with pytest.raises(DocumentError, match=r"\.n"):
        gio.parse_gm_data(gm_payload_with_n(n))


def test_cli_negative_n_exit_2():
    doc = {"kind": "gm_data", "version": "1", "payload": gm_payload_with_n(-1)}
    proc = run_cli(["validate"], json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "non-negative" in proc.stderr


def test_document_roundtrip_all_fixtures():
    for name, d in all_gm_fixtures().items():
        text = gio.emit(Document("gm_data", d))
        again = gio.parse(text)
        assert again.payload.mu == d.mu, name
        assert again.payload.q == d.q, name
        assert gio.emit(again) == text, name
    for name, ld in all_lagrangian_fixtures().items():
        text = gio.emit(Document("lagrangian_data", ld))
        again = gio.parse(text)
        assert again.payload.a == ld.a and again.payload.a1 == ld.a1, name
        assert gio.emit(again) == text, name


def test_emit_matches_json_dumps_on_every_fixture():
    docs = [("gm_data", d, gio.format_gm_data(d)) for d in all_gm_fixtures().values()]
    docs += [("lagrangian_data", ld, gio.format_lagrangian_data(ld)) for ld in all_lagrangian_fixtures().values()]
    for kind, value, payload in docs:
        expected = oracles.emit_json({"kind": kind, "version": "1", "payload": payload})
        assert gio.emit(Document(kind, value)) == expected


def test_emit_writes_no_type_for_data_whose_kernel_row_breaks_the_wedge_identity():
    # q(e1)(k_i, k_i) + 1 at the first non-zero coordinate i of the kernel
    # row k of mu: q(e1)(k, .) no longer vanishes, so classify raises, and
    # the document carries "type_hint": null as validate's report has no type
    d = sixfold_special()
    i = next(j for j, x in enumerate(d.ker_mu.int_rows[0]) if x)
    q = [[list(r) for r in m] for m in d.int_q[0]]
    q[0][i][i] += d.int_q[1]
    mu_rows = [list(r) for r in zip(*d.int_mu[0])]
    bad = GMData.from_int_rows(d.n, (mu_rows, d.int_mu[1]), [(m, d.int_q[1]) for m in q], d.epsilon)
    with pytest.raises(GmError, match="inconsistent kernel values"):
        classify(bad)
    text = gio.emit(Document("gm_data", bad))
    assert json.loads(text)["payload"]["type_hint"] is None
    assert gio.parse(text).payload == bad
    report = validate(bad)
    assert (report.ok, report.gm_type, report.witness) == (False, None, (0, i, i))


@st.composite
def rows_over_a_denominator(draw):
    """Integer rows over a positive denominator: negative and large entries,
    zero rows, den = 1, and entries that share factors with den."""
    den = draw(st.sampled_from([1, 2, 6, 12, 360, 3 * 2**70]) | st.integers(1, 10**25))
    divisors = [g for g in range(1, 61) if den % g == 0] + [den]
    entry = st.integers(-10**25, 10**25) | st.builds(lambda k, g: k * g, st.integers(-30, 30), st.sampled_from(divisors))
    width = draw(st.integers(0, 6))
    row = st.lists(entry, min_size=width, max_size=width) | st.just([0] * width)
    return draw(st.lists(row, max_size=5)), den, width


@given(rows_over_a_denominator())
@settings(max_examples=300, deadline=None)
def test_integer_rows_format_as_the_fraction_matrix(case):
    rows, den, width = case
    expected = oracles.format_matrix(Matrix([[Fraction(x, den) for x in r] for r in rows], cols=width))
    assert [gio.format_int_row(r, den) for r in rows] == expected


def fraction_emit(kind: str, value) -> str:
    """The text of a GM or Lagrangian document with its matrices formatted
    from their ``Fraction`` entries by the oracle."""
    if kind == "gm_data":
        payload = {"n": value.n, "mu": oracles.format_matrix(value.mu),
                   "q": [oracles.format_matrix(m) for m in value.q],
                   "epsilon": gio.format_rat(value.epsilon), "type_hint": classify(value)}
    else:
        payload = {"A": {"ambient_dim": value.a.ambient_dim, "basis": oracles.format_matrix(value.a.basis)},
                   "A1": value.a1}
    return oracles.emit_json({"kind": kind, "version": "1", "payload": payload})


def test_integer_emit_matches_the_fraction_emit():
    from gmepw.correspondence import dualize, hyperplane_section_lagrangian, lagrangian_to_gm
    from gmepw.exterior import inject
    from gmepw.gm import NON_LCI, classify, opposite

    gms = list(all_gm_fixtures().values())
    lags = list(all_lagrangian_fixtures().values())
    for path in sorted(FIXDIR.glob("*.json")):
        doc = gio.parse(path.read_text(encoding="utf-8"))
        (gms if doc.kind == "gm_data" else lags).append(doc.payload)
    gms += [opposite(d) for d in gms if classify(d) != NON_LCI]
    gms += [lagrangian_to_gm(ld) for ld in lags if ld.a1 != "inf"]
    eta = inject(3, [1, 0, 2, 0, -1, 0, 0, 3, 0, 1])
    lags += [dualize(ld) for ld in lags]
    lags += [LagrangianData(a=hyperplane_section_lagrangian(ld.a, eta), a1=ld.a1) for ld in lags]
    for d in gms:
        assert gio.emit(Document("gm_data", d)) == fraction_emit("gm_data", d)
    for ld in lags:
        assert gio.emit(Document("lagrangian_data", ld)) == fraction_emit("lagrangian_data", ld)


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                         st.lists(st.text(), max_size=4))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(JSON_TREES)
@settings(max_examples=300, deadline=None)
def test_emit_matches_json_dumps_on_json_trees(tree):
    # nested dicts and lists, empty containers, lists of strings, and strings
    # with non-ASCII and control characters, as a report payload
    expected = oracles.emit_json({"kind": "report", "version": "1", "payload": tree})
    assert gio.emit(Document("report", tree)) == expected


def test_non_rref_subspace_canonicalized():
    obj = {"ambient_dim": 3, "basis": [["2", "2", "0"], ["1", "2", "1"]]}
    s = gio.parse_subspace(obj)
    assert s.basis == Matrix([[1, 0, -1], [0, 1, 1]])
    # re-emitted in canonical form
    assert gio.format_subspace(s)["basis"] == [["1", "0", "-1"], ["0", "1", "1"]]


def test_parse_reports_field_paths():
    with pytest.raises(DocumentError, match=r"q\[1\]"):
        gio.parse_gm_data(
            {
                "n": 0,
                "mu": [["0"] * 5] * 10,
                "q": [[["0"] * 5] * 5, [["0"] * 4] * 5] + [[["0"] * 5] * 5] * 4,
            }
        )
    with pytest.raises(DocumentError, match="version"):
        gio.parse(json.dumps({"kind": "gm_data", "version": "99", "payload": {}}))
    for kind in ("mystery", "quadric"):
        with pytest.raises(DocumentError, match="unknown kind"):
            gio.parse(json.dumps({"kind": kind, "version": "1", "payload": {}}))
    with pytest.raises(DocumentError, match="JSON"):
        gio.parse("{not json")


def test_fixture_files_match_builtins():
    # every shipped file is byte-equal to the emitted built-in fixture
    files = sorted(FIXDIR.glob("*.json"))
    assert len(files) == 6
    for path in files:
        name, kind, _ = path.name.split(".")
        if kind == "gm":
            doc = Document("gm_data", all_gm_fixtures()[name])
        else:
            doc = Document("lagrangian_data", all_lagrangian_fixtures()[name])
        assert path.read_bytes() == gio.emit(doc).encode("utf-8"), path.name
    doc = gio.parse((FIXDIR / "fivefold.gm.json").read_text())
    d = fivefold()
    assert doc.payload.mu == d.mu and doc.payload.q == d.q


def test_cli_validate_ok_and_violation():
    text = gio.emit(Document("gm_data", fivefold()))
    proc = run_cli(["validate"], text)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["ok"] and payload["type"] == "ordinary"

    # break one entry of a hyperplane form: mathematical violation, exit 1
    broken = json.loads(text)
    broken["payload"]["q"][0][2][3] = "99"
    broken["payload"]["q"][0][3][2] = "99"
    proc = run_cli(["validate"], json.dumps(broken))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)["payload"]
    assert not payload["ok"]
    assert payload["witness"][0] == 0


def test_cli_malformed_input_exit_2():
    proc = run_cli(["validate"], '{"kind":"gm_data","version":"1","payload":{"n":0,"mu":[["1/0"]],"q":[]}}')
    assert proc.returncode == 2
    assert "malformed rational" in proc.stderr
    # a JSON boolean is not an ambient dimension, though Python reads true as 1
    for flag in (True, False):
        with pytest.raises(DocumentError, match=r"ambient_dim: expected a non-negative integer"):
            gio.parse_subspace({"ambient_dim": flag, "basis": []})
    doc = {"kind": "lagrangian_data", "version": "1",
           "payload": {"A": {"ambient_dim": True, "basis": [["1"] + ["0"] * 19]}, "A1": "0"}}
    proc = run_cli(["dim-report"], json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected a non-negative integer" in proc.stderr


def test_cli_pipe_roundtrip_byte_identical():
    text = gio.emit(Document("gm_data", fivefold()))
    first = run_cli(["to-lagrangian"], text)
    assert first.returncode == 0
    second = run_cli(["from-lagrangian", "--a1", "0"], first.stdout)
    assert second.returncode == 0
    assert second.stdout == text


def test_cli_dualize_involution():
    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    once = run_cli(["dualize"], text)
    twice = run_cli(["dualize"], once.stdout)
    assert twice.stdout == text


def test_cli_dim_report_and_epw_point():
    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    proc = run_cli(["dim-report"], text)
    payload = json.loads(proc.stdout)["payload"]
    assert payload == {
        "dim_a_cap_l3v5": 0,
        "predicted_dim_x": 5,
        "type": "ordinary",
        "degenerate": False,
    }
    proc = run_cli(["epw-point", "--point", "1,0,0,0,0,0"], text)
    assert json.loads(proc.stdout)["payload"]["y_stratum"] == 0
    proc = run_cli(["epw-dual-point", "--covector", "0,0,0,0,0,1"], text)
    assert json.loads(proc.stdout)["payload"]["y_dual_stratum"] == 0


def test_cli_epw_line_certificate():
    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    proc = run_cli(
        ["epw-line", "--kind", "y", "--base", "1,2,0,1,-1,3", "--dir", "0,1,1,-2,1,1"],
        text,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "certificate"
    assert doc["payload"]["degree"] == 6
    assert doc["payload"]["checked_points"] >= 20


def test_cli_zeta_plane_and_sigma():
    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    proc = run_cli(
        ["zeta-plane", "--plane", "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0"], text
    )
    assert json.loads(proc.stdout)["payload"]["z_stratum"] == 0
    proc = run_cli(["sigma", "--point", "1,0,0,0,0,0"], text)
    assert json.loads(proc.stdout)["payload"]["sigma1_level"] == 0


def test_cli_fib_csv():
    import csv as csvmod
    import io as iomod

    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    proc = run_cli(["fib1", "--point", "1,2,-1,0,3,0"], text)
    rows = list(csvmod.reader(iomod.StringIO(proc.stdout)))
    assert rows[0] == ["query", "sigma_level", "stratum", "ambient_proj_dim", "corank", "agreement"]
    assert rows[1] == ["1,2,-1,0,3,0", "0", "0", "3", "0", "True"]
    proc = run_cli(
        ["fib2", "--plane", "1,0,0,0,1,0;0,1,0,2,0,0;0,0,1,-1,1,0"], text
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 2


def test_cli_disc_line_and_hull_sample():
    text = gio.emit(Document("gm_data", fivefold()))
    proc = run_cli(["disc-line", "--base", "1,0,2,0,0,1", "--dir", "0,1,0,1,0,0"], text)
    payload = json.loads(proc.stdout)["payload"]
    assert payload["plucker_mult"] >= 4
    assert len(payload["dis_poly"]) - 1 <= 6
    proc = run_cli(["hull-sample", "--seed", "7"], text)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["payload"]["point"]) == 10


def test_cli_opposite_and_hyperplane_update():
    text = gio.emit(Document("gm_data", fivefold()))
    proc = run_cli(["opposite"], text)
    doc = json.loads(proc.stdout)
    assert doc["payload"]["n"] == 6 and doc["payload"]["type_hint"] == "special"
    back = run_cli(["opposite"], proc.stdout)
    assert back.stdout == text

    lag_text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    proc = run_cli(["hyperplane-update", "--eta0", "1,0,0,0,0,0,0,0,0,0"], lag_text)
    assert proc.returncode == 0
    updated = gio.parse(proc.stdout).payload
    assert updated.a.intersect(fivefold_lagrangian().a).dim == 9


def test_cli_fixture_listing():
    proc = run_cli(["fixture", "--list"])
    assert proc.returncode == 0
    assert "fivefold" in proc.stdout
    proc = run_cli(["fixture", "nonsense"])
    assert proc.returncode == 2


def test_cli_from_lagrangian_inf_is_violation():
    ld = LagrangianData(a=fivefold_lagrangian().a, a1="inf")
    text = gio.emit(Document("lagrangian_data", ld))
    proc = run_cli(["from-lagrangian"], text)
    assert proc.returncode == 1


def test_lagrangian_document_rejects_non_lagrangian():
    obj = {
        "kind": "lagrangian_data",
        "version": "1",
        "payload": {"A": {"ambient_dim": 20, "basis": [["1"] + ["0"] * 19]}, "A1": "0"},
    }
    with pytest.raises(DocumentError):
        gio.parse(json.dumps(obj))


def test_cli_deterministic_given_inputs_and_seed():
    text = gio.emit(Document("lagrangian_data", fivefold_lagrangian()))
    args = ["epw-line", "--kind", "y", "--base", "1,0,0,2,0,1", "--dir", "0,1,1,0,1,0", "--seed", "9"]
    first = run_cli(args, text)
    second = run_cli(args, text)
    assert first.stdout == second.stdout
    gm_text = gio.emit(Document("gm_data", fivefold()))
    a = run_cli(["hull-sample", "--seed", "3"], gm_text)
    b = run_cli(["hull-sample", "--seed", "3"], gm_text)
    assert a.stdout == b.stdout


LCI_DOCUMENTS = ["fivefold", "sixfold_special", "threefold", "sigma_fourfold"]


def row_space_key(d):
    s = Subspace.from_rows(d.w_dim, d.mu.data)
    return s.ambient_dim, tuple(s.int_rows)


@pytest.mark.parametrize("name", LCI_DOCUMENTS)
def test_each_gm_document_takes_one_kernel_of_mu(name, monkeypatch):
    # the kernel of mu is the annihilator of its row space, and the kernel
    # form is gm._kernel_form: count both per data while a document goes
    # through to-lagrangian, opposite and from-lagrangian and is emitted
    from gmepw import gm
    from gmepw.correspondence import gm_to_lagrangian, lagrangian_to_gm

    kernels, forms = Counter(), Counter()
    annihilator, kernel_form = Subspace.annihilator, gm._kernel_form

    def count_kernel(self):
        kernels[self.ambient_dim, tuple(self.int_rows)] += 1
        return annihilator(self)

    def count_form(d, k):
        forms[id(d)] += 1
        return kernel_form(d, k)

    monkeypatch.setattr(Subspace, "annihilator", count_kernel)
    monkeypatch.setattr(gm, "_kernel_form", count_form)
    text = (FIXDIR / f"{name}.gm.json").read_text(encoding="utf-8")
    for flow in ("to-lagrangian", "opposite", "validate"):
        kernels.clear()
        forms.clear()
        d = gio.parse(text).payload
        if flow == "to-lagrangian":
            ld = gm_to_lagrangian(d)
            seen = [d]
        elif flow == "opposite":
            e = gm.opposite(d)
            gio.emit(Document("gm_data", e))
            seen = [d, e]
        else:
            assert gm.validate(d).ok
            gio.emit(Document("gm_data", d))
            seen = [d]
        for x in seen:
            assert kernels[row_space_key(x)] == 1, (flow, kernels[row_space_key(x)])
            assert forms[id(x)] == (x.ker_mu.dim == 1), (flow, forms[id(x)])
    for tag in ("0", "1"):
        kernels.clear()
        d = lagrangian_to_gm(LagrangianData(a=ld.a, a1=tag))
        gio.emit(Document("gm_data", d))
        assert kernels[row_space_key(d)] == 1, tag


# ---- the integer matrix reader against parse_rat


def rat_outcome(token, where):
    try:
        return "value", oracles.parse_rat(token, where)
    except DocumentError as exc:
        return "error", str(exc)


def reader_outcome(matrix, where="m"):
    try:
        rows, den = gio.parse_matrix(matrix, where)
    except DocumentError as exc:
        return "error", str(exc)
    assert den >= 1 and all(type(x) is int for row in rows for x in row)
    return "value", [[Fraction(x, den) for x in row] for row in rows]


READER_TOKENS = ["-0", "007", "+3", 7, -12, 10**40, True, False, "2/4", "0.5", "1e3", "-2.5e-3", "1e1000",
                 "1e1001", "3e1_001", " " * 10_000 + "1", "1" + "0" * 4300, " 12 ", "x", "1/0", "", None, 2.5,
                 [], {}, "9", "-9", "10", "-10"]


def reader_matches_parse_rat(token):
    # the token at [1][2] among small integers and fractions: the same
    # value as parse_rat gives, or the same DocumentError text and path
    matrix = [["1", "2/3", "0", "5"], ["-1", "4", token, "7/2"], ["0", "0", "-5/6", "-9"]]
    kind, value = rat_outcome(token, "m[1][2]")
    if kind == "error":
        return reader_outcome(matrix) == (kind, value)
    expected = [[oracles.parse_rat(x) for x in row] for row in matrix]
    return reader_outcome(matrix) == ("value", expected)


@pytest.mark.parametrize("token", READER_TOKENS, ids=[repr(t)[:20] for t in READER_TOKENS])
def test_reader_reads_each_token_as_parse_rat_does(token):
    assert reader_matches_parse_rat(token)


@given(RAT_TOKENS)
@settings(max_examples=300, deadline=None)
def test_reader_matches_parse_rat_on_random_tokens(token):
    assert reader_matches_parse_rat(token)


def test_reader_builds_no_fraction_for_integer_tokens(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built for an integer token")

    monkeypatch.setattr(gio, "Fraction", refuse)
    rows, den = gio.parse_matrix([["0", "-0", "007", 7, "-12"], ["123456789012345678901234567890", "9", "-9", "3", 0]])
    assert (rows, den) == ([[0, 0, 7, 7, -12], [123456789012345678901234567890, 9, -9, 3, 0]], 1)


def test_reader_puts_the_rows_over_the_lcm_of_reduced_denominators():
    assert gio.parse_matrix([["2/4", "1/6", "3"], ["-4/8", "0", "10/15"]]) == ([[3, 1, 18], [-3, 0, 4]], 6)
    assert gio.parse_matrix([["4/2", "+3", "6/3"]]) == ([[2, 3, 2]], 1)
    assert gio.parse_matrix([]) == ([], 1)


BAD_TOKENS = ["x", "1/0", True, None, "1e1001", " " * 10_001, "+", [1], 2.5]


def fixture_payload(name: str) -> dict:
    return json.loads((FIXDIR / name).read_text(encoding="utf-8"))


def parse_error(doc) -> str:
    with pytest.raises(DocumentError) as info:
        gio.parse(json.dumps(doc))
    return str(info.value)


@pytest.mark.parametrize("token", BAD_TOKENS, ids=[repr(t)[:12] for t in BAD_TOKENS])
def test_document_errors_keep_their_text_and_field_path(token):
    # the text is the one of the Fraction(str) reader, with the same path
    expected = lambda where: rat_outcome(token, where)[1]  # noqa: E731
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["mu"][3][2] = token
    assert parse_error(doc) == expected("gm_data.mu[3][2]")
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["q"][4][1][0] = token
    assert parse_error(doc) == expected("gm_data.q[4][1][0]")
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["epsilon"] = token
    assert parse_error(doc) == expected("gm_data.epsilon")
    doc = fixture_payload("sigma_fourfold.lag.json")
    doc["payload"]["A"]["basis"][2][5] = token
    assert parse_error(doc) == expected("lagrangian_data.A.basis[2][5]")
    doc = fixture_payload("sigma_fourfold.lag.json")
    doc["payload"]["frame"] = [[str(int(i == j)) for j in range(6)] for i in range(6)]
    doc["payload"]["frame"][1][1] = token
    assert parse_error(doc) == expected("lagrangian_data.frame[1][1]")


def test_document_shape_errors_keep_their_text():
    cases = []
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["mu"][0] = doc["payload"]["mu"][0][:-1]
    cases.append((doc, "gm_data.mu: ragged rows"))
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["mu"] = [row[:-1] for row in doc["payload"]["mu"]]
    cases.append((doc, "gm_data.mu: expected 10 columns, found 9"))
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["q"][2] = doc["payload"]["q"][2][:-1]
    cases.append((doc, "gm_data.q[2]: expected 10 rows, found 9"))
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["q"][5] = "0"
    cases.append((doc, "gm_data.q[5]: expected a nested array"))
    doc = fixture_payload("fivefold.gm.json")
    doc["payload"]["epsilon"] = "0/7"
    cases.append((doc, "gm_data.epsilon: must be non-zero"))
    doc = fixture_payload("sigma_fourfold.lag.json")
    doc["payload"]["A"]["basis"] = [row[:-1] for row in doc["payload"]["A"]["basis"]]
    cases.append((doc, "lagrangian_data.A.basis: rows of length 19 in ambient 20"))
    doc = fixture_payload("sigma_fourfold.lag.json")
    doc["payload"]["frame"] = [["1"] * 6] * 5
    cases.append((doc, "lagrangian_data.frame: expected 6 rows, found 5"))
    doc = fixture_payload("sigma_fourfold.lag.json")
    doc["payload"]["frame"] = [["1"] * 6] * 6
    cases.append((doc, "lagrangian_data.frame: frame must be an invertible 6 x 6 matrix"))
    for doc, message in cases:
        assert parse_error(doc) == message


# ---- the integer views that GMData.from_int_rows is given


def over_common_denominator(matrices):
    """The Fraction matrices as integer rows over their least common denominator."""
    den = lcm(*(x.denominator for m in matrices for row in m.data for x in row))
    return [[[x.numerator * (den // x.denominator) for x in row] for row in m.data] for m in matrices], den


def assert_views_are_the_fraction_views(d):
    # the stored rows are the Fraction fields over their least common
    # denominators, in the same containers
    (mu_rows,), m = over_common_denominator([d.mu])
    assert d.__dict__["int_mu"] == (list(zip(*mu_rows)), m)
    assert d.__dict__["int_q"] == over_common_denominator(d.q)


def non_canonical(text: str) -> str:
    """The document with tokens rewritten to equal ones: 0 as "-0", 1 as
    "2/2", -1 as a JSON integer, 2 as "002", and each p/q of q(e6) as
    6p/6q."""
    doc = json.loads(text)
    spelled = {"0": "-0", "1": "2/2", "-1": -1, "2": "002"}
    payload = doc["payload"]
    payload["mu"] = [[spelled.get(x, x) for x in row] for row in payload["mu"]]
    payload["q"] = [[[spelled.get(x, x) for x in row] for row in m] for m in payload["q"][:5]] + [
        [[f"{6 * Fraction(x).numerator}/{6 * Fraction(x).denominator}" for x in row] for row in payload["q"][5]]]
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(all_gm_fixtures()))
def test_reader_views_equal_the_fraction_views(name):
    d = all_gm_fixtures()[name]
    text = gio.emit(Document("gm_data", d))
    for doc in (text, non_canonical(text)):
        parsed = gio.parse(doc).payload
        assert parsed == d
        assert_views_are_the_fraction_views(parsed)


def test_constructed_views_equal_the_fraction_views():
    from gmepw.correspondence import lagrangian_to_gm
    from gmepw.gm import GMData, NON_LCI, classify, opposite

    for d in all_gm_fixtures().values():
        if classify(d) != NON_LCI:
            assert_views_are_the_fraction_views(opposite(d))
            assert_views_are_the_fraction_views(opposite(opposite(d)))
    for ld in all_lagrangian_fixtures().values():
        if ld.a1 != "inf":
            assert_views_are_the_fraction_views(lagrangian_to_gm(ld))
    # rows over a denominator that is not the least one
    d = fivefold()
    qs, den = d.int_q
    scaled = GMData.from_int_rows(d.n, ([[6 * x for x in row] for row in zip(*d.int_mu[0])], 6 * d.int_mu[1]),
                                  [([[6 * x for x in row] for row in g], 6 * den) for g in qs])
    assert scaled == d
    assert_views_are_the_fraction_views(scaled)
