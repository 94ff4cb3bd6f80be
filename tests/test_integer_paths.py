"""The quadric layer, the frame action and ``gm.membership`` on integer rows.

No ``Fraction`` matrix is built on the quadric and fibration paths; the
integer frame action and membership agree with the ``Fraction`` formulas in
``oracles`` that they replaced; and the Lagrangians drawn by the
``quadric_correspondence`` check, with the grams of their quadric pairs and
duals, hash to the value they had when the quadrics held ``Fraction``
matrices.  The samplers' symplectic frame, read off the integer form, is the
``Fraction`` Gram-Schmidt frame of ``oracles`` on every form shape in use,
and so are the Lagrangians and the draws taken over it.
"""

import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gmepw import cli
from gmepw import io as gio
from gmepw.correspondence import apply_frame, extended_space
from gmepw.exterior import SymplecticSpace, exterior_power_matrix, wedge_symplectic_space
from gmepw.fixtures import all_gm_fixtures, all_lagrangian_fixtures
from gmepw.gm import membership
from gmepw.linalg import Matrix, Subspace, clear_denominators, det_int
from gmepw.quadrics import (
    QuadricOnSubspace,
    dual_quadric_via_pairing,
    lagrangian_from_quadric,
    quadric_pair_from_lagrangian,
    standard_doubled_space,
)
from gmepw.sampling import (
    random_invertible,
    random_lagrangian,
    random_vector,
    rng_from_seed,
    standard_lagrangian_pair,
    symplectic_frame,
)

import oracles

ROOT = Path(__file__).resolve().parent.parent


def forbid_fraction_matrices(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction matrix was built")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "from_int_rows", classmethod(refuse))


def run_main(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# hyperplane points and 3-spaces of the hyperplane, with e1 and span(e1, e2,
# e4), the exceptional points of the sigma fixture, and fractional entries
FIBER_QUERIES = [
    ["fib1", "--point", "1,2,-1,0,3,0", "--point", "1,0,0,0,0,0", "--point", "1/2,1,0,-1,2/3,0"],
    ["fib2", "--plane", "1,0,0,0,1,0;0,1,0,2,0,0;0,0,1,-1,1,0",
     "--plane", "1,0,0,0,0,0;0,1,0,0,0,0;0,0,0,1,0,0", "--plane", "1/2,0,1,0,0,0;0,1,0,0,1,0;0,0,0,1,1/3,0"],
]


@pytest.mark.parametrize("argv", FIBER_QUERIES, ids=["fib1", "fib2"])
def test_fiber_reports_build_no_fraction_matrix(argv, monkeypatch, capsys):
    docs = {name: gio.emit(gio.Document("lagrangian_data", ld)) for name, ld in all_lagrangian_fixtures().items()}
    expected = {name: run_main(argv, doc, monkeypatch, capsys) for name, doc in docs.items()}
    assert all(code == cli.EXIT_OK for code, _, _ in expected.values())
    forbid_fraction_matrices(monkeypatch)
    for name, doc in docs.items():
        assert run_main(argv, doc, monkeypatch, capsys) == expected[name], name


def test_quadric_operations_build_no_fraction_matrix(monkeypatch):
    rng = rng_from_seed("integer-quadrics")
    cases = []
    for m in (2, 3, 4):
        dec = standard_doubled_space(m)
        cases += [(m, dec, a) for a in (dec.l1, dec.l2, *(random_lagrangian(dec.space, rng) for _ in range(6)))]
    dec20 = standard_lagrangian_pair(wedge_symplectic_space())
    cases += [(None, dec20, random_lagrangian(dec20.space, rng)) for _ in range(2)]
    forbid_fraction_matrices(monkeypatch)
    for m, dec, a in cases:
        q1, q2 = quadric_pair_from_lagrangian(dec, a)
        assert dual_quadric_via_pairing(dec, q1, 1) == q2
        assert dual_quadric_via_pairing(dec, q2, 2) == q1
        k1, k2 = q1.kernel_subspace(), q2.kernel_subspace()
        assert (k1, k2) == (a.intersect(dec.l1), a.intersect(dec.l2))
        assert (q1.corank, q2.corank) == (k1.dim, k2.dim)
        if m is not None:  # the graph over the first summand of k^m + dual
            small = Subspace.from_rows(m, [r[:m] for r in q1.span.int_rows])
            assert lagrangian_from_quadric(QuadricOnSubspace(small, q1.int_gram)) == a


def quadric_correspondence_record() -> list:
    """The integer rows of each Lagrangian that the ``quadric_correspondence``
    check draws at its default sizes, with the span rows and the ``Fraction``
    grams of its quadric pair and of their duals, in draw order."""
    def record(dec, a):
        q1, q2 = quadric_pair_from_lagrangian(dec, a)
        duals = dual_quadric_via_pairing(dec, q1, 1), dual_quadric_via_pairing(dec, q2, 2)
        return [[list(r) for r in a.int_rows]] + [
            [[list(r) for r in q.span.int_rows], [[str(x) for x in row] for row in q.gram.data]]
            for q in (q1, q2, *duals)]

    rng = rng_from_seed("acceptance-1")
    out = []
    for m, count in ((2, 3), (3, 3), (4, 3)):
        dec = standard_doubled_space(m)
        cases = [dec.l1, dec.l2]
        while len(cases) < count:
            cases.append(random_lagrangian(dec.space, rng))
        out += [record(dec, a) for a in cases]
    space = wedge_symplectic_space()
    out.append(record(standard_lagrangian_pair(space), random_lagrangian(space, rng)))
    return out


def test_quadric_correspondence_draws_are_pinned():
    # the digest taken when the quadrics held Fraction matrices
    digest = hashlib.sha256(json.dumps(quadric_correspondence_record()).encode()).hexdigest()
    assert digest == "e2567e278ca59ad6c87d27070bae37b5e57822ffdac2e9a1493726664f45ee80"


def int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("seed", range(3))
def test_apply_frame_equals_the_fraction_exterior_cube(seed):
    rng = rng_from_seed(f"frames-{seed}")
    for name, ld in all_lagrangian_fixtures().items():
        f = random_invertible(rng, 6, 3)
        cube = oracles.exterior_power_matrix(Matrix(f), 3)
        assert Matrix(exterior_power_matrix(f, 3)) == cube
        expected = Subspace.from_rows(20, [oracles.apply(cube, r) for r in ld.a.basis_rows()])
        assert apply_frame(ld.a, f) == expected, name


@pytest.mark.parametrize("degree", range(1, 7))
def test_exterior_powers_are_functorial_in_integers(degree):
    rng = rng_from_seed(f"functorial-{degree}")
    for _ in range(3):
        f, g = random_invertible(rng, 6, 3), random_invertible(rng, 6, 3)
        power = exterior_power_matrix(int_mul(f, g), degree)
        assert all(type(x) is int for row in power for x in row)
        assert power == int_mul(exterior_power_matrix(f, degree), exterior_power_matrix(g, degree))
    assert exterior_power_matrix(f, 6) == [[det_int(f)]]


def test_a_fractional_frame_gives_the_bytes_of_the_cleared_frame():
    rng = rng_from_seed("fractional-frame")
    doc = json.loads((ROOT / "fixtures" / "fivefold.lag.json").read_text(encoding="utf-8"))
    lag = gio.parse(json.dumps(doc)).payload.a

    def emitted(rows) -> str:
        doc["payload"]["frame"] = [[gio.format_rat(x) for x in row] for row in rows]
        return gio.emit(gio.parse(json.dumps(doc)))

    done = 0
    while done < 5:
        frame = [[Fraction(x, rng.choice([1, 2, 3, 4])) for x in row] for row in random_invertible(rng, 6, 3)]
        if Matrix(frame).det() == 0 or all(x.denominator == 1 for row in frame for x in row):
            continue
        flat, den = clear_denominators([x for row in frame for x in row])
        out = emitted(frame)
        assert out == emitted([flat[k:k + 6] for k in range(0, 36, 6)])
        cube = oracles.exterior_power_matrix(Matrix(frame), 3)
        assert gio.parse(out).payload.a == Subspace.from_rows(20, [oracles.apply(cube, r) for r in lag.basis_rows()])
        done += 1


def fraction_membership(d, w) -> str:
    """``gm.membership`` by the former ``vec_dot(w, q.apply(w))`` values."""
    vals = [oracles.vec_dot(w, oracles.apply(g, w)) for g in d.q]
    if any(vals[:5]):
        return "off"
    return "on_hull_only" if vals[5] else "on_x"


def test_membership_equals_the_fraction_values():
    from gmepw.gm import GMData, hull_point_sample

    rng = rng_from_seed("membership")
    fixtures = all_gm_fixtures()
    # the fivefold's hyperplane quadrics with q(e6) = 0: its hull points lie on X
    five = fixtures["fivefold"]
    (qs, den), w = five.int_q, five.w_dim
    mu = ([list(r) for r in zip(*five.int_mu[0])], five.int_mu[1])
    fixtures["fivefold q(e6) = 0"] = GMData(5, mu, [(g, den) for g in qs[:5]] + [([[0] * w] * w, 1)])
    seen = set()
    for name, d in fixtures.items():
        points = []
        if name != "sixfold_special":
            points += [hull_point_sample(d, seed) for seed in range(6)]
        points += [[Fraction(x, rng.randint(1, 5)) for x in random_vector(rng, d.w_dim, 4)] for _ in range(6)]
        points += [[Fraction(int(i == j)) for j in range(d.w_dim)] for i in range(d.w_dim)]
        for w in points:
            if any(w):
                got = membership(d, w)
                assert got == fraction_membership(d, w), (name, w)
                seen.add(got)
        for n in (d.w_dim - 1, d.w_dim + 1):
            with pytest.raises(ValueError):
                membership(d, [Fraction(1, 2)] * n)
    assert seen == {"off", "on_hull_only", "on_x"}


def scaled_standard_space(m: int, scale: Fraction) -> SymplecticSpace:
    rows = [[dict(r).get(j, 0) for j in range(2 * m)] for r in standard_doubled_space(m).space.int_form[0]]
    return SymplecticSpace([[scale.numerator * x for x in row] for row in rows], scale.denominator)


FORM_SHAPES = (
    [(f"standard-{m}", lambda m=m: standard_doubled_space(m).space) for m in range(1, 11)]
    + [("wedge", wedge_symplectic_space), ("extended", extended_space)]
    + [(f"standard-{m}-{scale}", lambda m=m, scale=scale: scaled_standard_space(m, scale))
       for scale in (Fraction(1, 2), Fraction(2, 3), Fraction(3)) for m in (2, 3, 4)]
)


@pytest.mark.parametrize("name, build", FORM_SHAPES, ids=[name for name, _ in FORM_SHAPES])
def test_the_frame_read_off_the_form_is_the_gram_schmidt_frame(name, build):
    space = build()
    ps, qs, den = symplectic_frame(space)
    assert all(type(x) is int for row in ps + qs for x in row)
    assert ([[Fraction(x, den) for x in p] for p in ps], [[Fraction(x, den) for x in q] for q in qs]) == (
        oracles.symplectic_basis(space))
    pair = standard_lagrangian_pair(space)
    assert (pair.l1, pair.l2) == (Subspace.from_rows(space.total_dim, ps), Subspace.from_rows(space.total_dim, qs))
    for seed in range(10):
        rng, ref = rng_from_seed(f"frame-{name}-{seed}"), rng_from_seed(f"frame-{name}-{seed}")
        assert random_lagrangian(space, rng) == oracles.random_lagrangian(space, ref)
        assert rng.getstate() == ref.getstate()


def test_a_form_that_does_not_pair_coordinates_has_no_frame():
    # row 0 pairs e1 with e2 and with e3; the Pfaffian is 1
    space = SymplecticSpace([[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]])
    assert len(oracles.symplectic_basis(space)[0]) == 2
    for sample in (symplectic_frame, standard_lagrangian_pair, lambda s: random_lagrangian(s, rng_from_seed(0))):
        with pytest.raises(ValueError, match="does not pair coordinates"):
            sample(space)
