"""The three workloads: seeded inputs, the timed call of each op, and the
exact check of each op's answer.

Every workload is closed-loop with one client: the next op starts only after
the previous one has returned.  Inputs come from ``random.Random(seed)`` in
this file, never from the library's own samplers, so the program sees only
the generated inputs.  ``gmepw`` is imported inside the builders, not at the
top of this module, so that the set-up timing in ``run.py`` covers the import.

An op's ``run`` is the timed call.  Its ``check`` runs outside the timed
region and raises ``CheckFailed`` (or anything else) when the answer is
wrong.  ``output`` turns the answer into the bytes that go into the
workload's digest.
"""

from __future__ import annotations

import contextlib
import io as stdio
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"

# Names as in gmepw.fixtures.all_gm_fixtures and all_lagrangian_fixtures.
LCI_FIXTURES = ("fivefold", "sixfold_special", "threefold", "sigma_fourfold")
CERTIFY_FIXTURES = ("fivefold", "threefold", "sigma_fourfold")
# The expected dimension of X and GM type of each fixture (README, c04).
EXPECTED_DIM = {"fivefold": 5, "sixfold_special": 6, "threefold": 3, "sigma_fourfold": 4}
EXPECTED_TYPE = {
    "fivefold": "ordinary",
    "sixfold_special": "special",
    "threefold": "ordinary",
    "sigma_fourfold": "ordinary",
}

# Sizes of one pass.  They fix the op mix, so every seed measures the same
# kinds of work in the same proportions.
FIB_QUERIES_PER_KIND = 12     # fib1 and fib2 queries per fixture
FIB_ENGINEERED = 3            # of the sigma_fourfold queries of each kind
DICT_VARIANTS = 3             # seeded variants of each command that takes arguments


class CheckFailed(Exception):
    """An op's answer is not the exact expected answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    output: Callable[[Any], bytes]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _ints(rng: random.Random, n: int, height: int) -> list[int]:
    while True:
        v = [rng.randint(-height, height) for _ in range(n)]
        if any(v):
            return v


def _rank(rows) -> int:
    from gmepw.linalg import Matrix

    return Matrix([[Fraction(x) for x in r] for r in rows]).rank()


def _line(rng: random.Random) -> tuple[list[int], list[int]]:
    """A line of height 4 not inside the hyperplane, which the discriminant
    along it needs."""
    while True:
        base, direction = _ints(rng, 6, 4), _ints(rng, 6, 4)
        if _rank([base, direction]) == 2 and (base[5] or direction[5]):
            return base, direction


def _fractions(v) -> list[Fraction]:
    return [Fraction(x) for x in v]


def _lagrangians():
    from gmepw import fixtures as fx

    return fx.all_lagrangian_fixtures()


def _gm_fixtures():
    from gmepw import fixtures as fx

    return fx.all_gm_fixtures()


# --------------------------------------------------------------------- certify


def build_certify(seed: int) -> list[Op]:
    """Degree certificates along seeded y-lines (height 4) and z-pencils
    (height 3) on the fivefold, threefold and sigma_fourfold Lagrangians:
    one of each kind per fixture and pass, as in criterion c05."""
    from gmepw import epw, gm

    rng = random.Random(f"certify-{seed}")
    lags = _lagrangians()
    gms = _gm_fixtures()
    ops = []
    for name in CERTIFY_FIXTURES:
        a = lags[name].a
        base, direction = _line(rng)
        cert_seed = rng.randrange(10**6)
        ops.append(_certify_y(f"y {name}", epw, gm, a, gms[name], base, direction, cert_seed))
        while True:
            rows = [_ints(rng, 6, 3) for _ in range(3)]
            direction = _ints(rng, 6, 3)
            if _rank(rows) == 3 and _rank(rows[:2] + [direction]) == 3:
                break
        cert_seed = rng.randrange(10**6)
        ops.append(_certify_z(f"z {name}", epw, a, rows, direction, cert_seed))
    return ops


def _cert_output(cert) -> bytes:
    return repr(
        (cert.kind, [str(c) for c in cert.poly.coeffs], cert.degree,
         cert.sample_consistency, cert.contains_line)
    ).encode()


def _certify_y(label, epw, gm, a, gm_data, base, direction, cert_seed) -> Op:
    base, direction = _fractions(base), _fractions(direction)

    def run():
        return epw.stratum_poly_on_line(a, base, direction, "y", seed=cert_seed)

    def check(cert):
        _require(not cert.contains_line, "line inside the stratum")
        _require(cert.degree == 6, f"degree {cert.degree}, expected 6")
        _require(cert.sample_consistency >= 20, "fewer than 20 sample checks")
        # second path: the reduced discriminant of the GM quadric family
        dis = gm.discriminant_on_line(gm_data, base, direction).dis_poly
        _require(dis is not None and dis.primitive().coeffs == cert.poly.coeffs,
                 "certificate differs from the GM discriminant")

    return Op(label, run, check, _cert_output)


def _certify_z(label, epw, a, rows, direction, cert_seed) -> Op:
    rows = tuple(_fractions(r) for r in rows)
    direction = _fractions(direction)

    def run():
        return epw.stratum_poly_on_line(a, rows, direction, "z", seed=cert_seed)

    def check(cert):
        _require(not cert.contains_line, "pencil inside the stratum")
        _require(cert.degree == 4, f"degree {cert.degree}, expected 4")
        _require(cert.sample_consistency >= 20, "fewer than 20 sample checks")

    return Op(label, run, check, _cert_output)


# ------------------------------------------------------------------- fibration


def build_fibration(seed: int) -> list[Op]:
    """Fiber reports of both fibrations on the four lci Lagrangians at seeded
    hyperplane points (height 4) and 3-spaces of the hyperplane (height 3).
    On sigma_fourfold a fixed number of each kind, at seeded positions, are
    engineered exceptional points (sigma level 1), as in criterion c08."""
    from gmepw import fibrations
    from gmepw.linalg import Subspace

    rng = random.Random(f"fibration-{seed}")
    lags = _lagrangians()
    ops = []
    for name in LCI_FIXTURES:
        ld = lags[name]
        engineered = set()
        if name == "sigma_fourfold":
            engineered = set(rng.sample(range(FIB_QUERIES_PER_KIND), FIB_ENGINEERED))
        for q in range(FIB_QUERIES_PER_KIND):
            if q in engineered:
                v = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), 0, 0, 0, 0, 0]
            else:
                v = _ints(rng, 5, 4) + [0]
            ops.append(_fib1(f"fib1 {name}", fibrations, ld, _fractions(v), q in engineered))
        engineered = set()
        if name == "sigma_fourfold":
            engineered = set(rng.sample(range(FIB_QUERIES_PER_KIND), FIB_ENGINEERED))
        for q in range(FIB_QUERIES_PER_KIND):
            rows = _engineered_v3(rng) if q in engineered else _generic_v3(rng)
            v3 = Subspace.from_rows(6, [_fractions(r) for r in rows])
            ops.append(_fib2(f"fib2 {name}", fibrations, ld, v3, q in engineered))
    return ops


def _generic_v3(rng: random.Random) -> list[list[int]]:
    while True:
        rows = [_ints(rng, 5, 3) + [0] for _ in range(3)]
        if _rank(rows) == 3:
            return rows


def _engineered_v3(rng: random.Random) -> list[list[int]]:
    """span(e1, a, b) with span(a, b) mod e1 Lagrangian for e23 + e45.

    The sigma_fourfold Lagrangian contains e1 ^ (e23 + e45); it lies in
    (hyperplane) ^ (2-forms of the 3-space) exactly for such 3-spaces, which
    puts them in the second exceptional locus.
    """
    s11, s12, s22 = (rng.randint(-4, 4) for _ in range(3))
    c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
    return [
        [1, 0, 0, 0, 0, 0],
        [c1, 1, s11, 0, s12, 0],
        [c2, 0, s12, 1, s22, 0],
    ]


def _fiber_output(r) -> bytes:
    return repr((r.ambient_proj_dim, r.corank, r.stratum_prediction, r.sigma_level,
                 r.expected_dim, r.agreement)).encode()


def _fiber_check(exceptional: bool):
    def check(r):
        _require(r.agreement is True, "the two paths disagree")
        if exceptional:
            _require(r.sigma_level == 1, f"sigma level {r.sigma_level} at an engineered point")

    return check


def _fib1(label, fibrations, ld, v, exceptional) -> Op:
    return Op(label, lambda: fibrations.fibration1_fiber(ld, v), _fiber_check(exceptional),
              _fiber_output)


def _fib2(label, fibrations, ld, v3, exceptional) -> Op:
    return Op(label, lambda: fibrations.fibration2_fiber(ld, v3), _fiber_check(exceptional),
              _fiber_output)


# ------------------------------------------------------------------ dictionary


def _cli(argv: list[str], text: str) -> tuple[int, str, str]:
    """Run ``gmepw.cli.main(argv)`` in-process with text on stdin."""
    from gmepw import cli

    out, err = stdio.StringIO(), stdio.StringIO()
    old_stdin = sys.stdin
    sys.stdin = stdio.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _cli_output(res) -> bytes:
    code, out, _ = res
    return f"{code}\n{out}".encode()


def _documents():
    """The input documents: the committed fixture files, and canonical
    emits of the Lagrangian fixtures that have no committed file."""
    from gmepw import io as gio

    gm_docs = {n: (FIXTURE_DIR / f"{n}.gm.json").read_text(encoding="utf-8") for n in LCI_FIXTURES}
    lag_docs = {}
    lags = _lagrangians()
    for n in LCI_FIXTURES:
        path = FIXTURE_DIR / f"{n}.lag.json"
        if path.exists():
            lag_docs[n] = path.read_text(encoding="utf-8")
        else:
            lag_docs[n] = gio.emit(gio.Document("lagrangian_data", lags[n]))
    return gm_docs, lag_docs


def build_dictionary(seed: int) -> list[Op]:
    """The README commands through ``gmepw.cli.main`` on the four lci
    fixtures: reads (validate, dim-report, epw-point, disc-line, hull-sample)
    and writes (to-lagrangian, from-lagrangian, dualize, opposite,
    hyperplane-update) with seeded arguments."""
    rng = random.Random(f"dictionary-{seed}")
    gm_docs, lag_docs = _documents()
    gms = _gm_fixtures()
    lags = _lagrangians()
    ops = []
    for name in LCI_FIXTURES:
        gm_doc, lag_doc, d = gm_docs[name], lag_docs[name], gms[name]
        ops.append(_op_validate(name, gm_doc))
        ops.append(_op_to_lagrangian(name, gm_doc, lag_doc))
        ops.append(_op_from_lagrangian(name, lag_doc, gm_doc, lags[name].a1))
        ops.append(_op_dualize(name, lag_doc))
        ops.append(_op_dim_report(name, lag_doc))
        ops.append(_op_opposite(name, gm_doc, gm_docs["sixfold_special"] if name == "fivefold" else None))
        for _ in range(DICT_VARIANTS):
            point = _ints(rng, 5, 4) + [rng.choice((-3, -2, -1, 1, 2, 3))]
            ops.append(_op_epw_point(name, lag_doc, d, point))
            base, direction = _line(rng)
            ops.append(_op_disc_line(name, gm_doc, d, base, direction))
            ops.append(_op_hull_sample(name, gm_doc, d, rng.randrange(10**6)))
            ops.append(_op_hyperplane_update(name, lag_doc, lags[name].a, _ints(rng, 10, 4)))
    return ops


def _vec_arg(v) -> str:
    # passed as --flag=value: a leading minus sign would read as an option
    return ",".join(str(x) for x in v)


def _cli_op(label, argv, text, check) -> Op:
    def checked(res):
        code, out, err = res
        _require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        check(out)

    return Op(label, lambda: _cli(argv, text), checked, _cli_output)


def _report(out: str) -> dict:
    from gmepw import io as gio

    doc = gio.parse(out)
    _require(doc.kind == "report", f"expected a report, got {doc.kind}")
    return doc.payload


def _op_validate(name, gm_doc) -> Op:
    def check(out):
        rep = _report(out)
        _require(rep["ok"] is True, "fixture fails validation")
        _require(rep["type"] == EXPECTED_TYPE[name], f"type {rep['type']}")

    return _cli_op(f"validate {name}", ["validate"], gm_doc, check)


def _op_to_lagrangian(name, gm_doc, lag_doc) -> Op:
    def check(out):
        _require(out == lag_doc, "to-lagrangian output differs from the fixture document")

    return _cli_op(f"to-lagrangian {name}", ["to-lagrangian"], gm_doc, check)


def _op_from_lagrangian(name, lag_doc, gm_doc, a1) -> Op:
    def check(out):
        _require(out == gm_doc, "from-lagrangian does not return the input gm document")

    return _cli_op(f"from-lagrangian {name}", ["from-lagrangian", "--a1", a1], lag_doc, check)


def _op_dualize(name, lag_doc) -> Op:
    def check(out):
        code, again, _ = _cli(["dualize"], out)
        _require(code == 0 and again == lag_doc, "dualize twice does not give back the input")

    return _cli_op(f"dualize {name}", ["dualize"], lag_doc, check)


def _op_dim_report(name, lag_doc) -> Op:
    def check(out):
        rep = _report(out)
        _require(rep["predicted_dim_x"] == EXPECTED_DIM[name], f"dim {rep['predicted_dim_x']}")
        _require(rep["type"] == EXPECTED_TYPE[name], f"type {rep['type']}")

    return _cli_op(f"dim-report {name}", ["dim-report"], lag_doc, check)


def _op_opposite(name, gm_doc, expected_doc) -> Op:
    from gmepw import gm
    from gmepw import io as gio

    flipped = "special" if EXPECTED_TYPE[name] == "ordinary" else "ordinary"

    def check(out):
        if expected_doc is not None:
            _require(out == expected_doc, "opposite differs from the committed opposite fixture")
        rep = gm.validate(gio.parse(out).payload)
        _require(rep.ok and rep.gm_type == flipped, f"opposite is {rep.gm_type}, ok={rep.ok}")

    return _cli_op(f"opposite {name}", ["opposite"], gm_doc, check)


def _op_epw_point(name, lag_doc, d, point) -> Op:
    n = d.n

    def check(out):
        level = _report(out)["y_stratum"]
        _require(isinstance(level, int) and level >= 0, f"level {level!r}")
        # second path (c03): the discriminant of the quadric at the point
        v = _fractions(point)
        dis = d.q_of(v).det() / v[5] ** (n - 1)
        _require((dis == 0) == (level >= 1), "stratum level disagrees with the discriminant")

    return _cli_op(f"epw-point {name}", ["epw-point", f"--point={_vec_arg(point)}"], lag_doc, check)


def _op_disc_line(name, gm_doc, d, base, direction) -> Op:
    from gmepw.polynomials import Poly

    def check(out):
        rep = _report(out)
        det_poly = Poly([Fraction(c) for c in rep["det_poly"]])
        _require(rep["dis_poly"] is not None, "discriminant vanishes identically")
        dis = Poly([Fraction(c) for c in rep["dis_poly"]])
        _require(dis.degree <= 6, f"discriminant degree {dis.degree}")
        _require(rep["plucker_mult"] >= d.n - 1, "hyperplane multiplicity too small")
        lam = Poly([base[5], direction[5]])
        _require(dis * lam ** (d.n - 1) == det_poly, "det != dis * lambda^(n-1)")

    argv = ["disc-line", f"--base={_vec_arg(base)}", f"--dir={_vec_arg(direction)}"]
    return _cli_op(f"disc-line {name}", argv, gm_doc, check)


def _op_hull_sample(name, gm_doc, d, hull_seed) -> Op:
    def check(out):
        w = [Fraction(c) for c in _report(out)["point"]]
        _require(any(w), "zero point")
        for i in range(5):
            g = d.q[i].data
            val = sum((w[x] * g[x][y] * w[y] for x in range(d.w_dim) for y in range(d.w_dim)),
                      Fraction(0))
            _require(val == 0, f"hull point off hyperplane quadric {i}")

    return _cli_op(f"hull-sample {name}", ["hull-sample", "--seed", str(hull_seed)], gm_doc, check)


def _op_hyperplane_update(name, lag_doc, a, eta0) -> Op:
    from gmepw import io as gio
    from gmepw.exterior import wedge_symplectic_space
    from gmepw.quadrics import is_lagrangian

    def check(out):
        a2 = gio.parse(out).payload.a
        _require(is_lagrangian(wedge_symplectic_space(), a2), "update is not Lagrangian")
        _require(a.intersect(a2).dim == 9, "update does not meet the input in dimension 9")

    argv = ["hyperplane-update", f"--eta0={_vec_arg(eta0)}"]
    return _cli_op(f"hyperplane-update {name}", argv, lag_doc, check)


BUILDERS = {
    "certify": build_certify,
    "fibration": build_fibration,
    "dictionary": build_dictionary,
}
