"""GM data validation, splitting, quadrics, hull sampling, opposites, and
discriminant lines."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmepw.exterior import monomial, wedge
from gmepw.fixtures import (
    all_gm_fixtures,
    all_lagrangian_fixtures,
    fivefold,
    sigma_fixture,
    sixfold_special,
    threefold,
)
from gmepw.gm import (
    GmError,
    GMData,
    NON_LCI,
    ORDINARY,
    SPECIAL,
    classify,
    discriminant_on_line,
    hull_point_sample,
    membership,
    opposite,
    plucker_grams,
    split_w,
    validate,
)
from gmepw.linalg import Matrix, Subspace, clear_denominators, unit_vector
from gmepw.polynomials import Poly
from gmepw.sampling import random_nonzero_vector, rng_from_seed

import oracles


def perturbed(d: GMData, i: int, a: int, b: int) -> GMData:
    q = [Matrix(m.copy_data()) for m in d.q]
    q[i].data[a][b] += Fraction(1)
    q[i].data[b][a] += Fraction(1) if a != b else Fraction(0)
    return GMData(n=d.n, mu=d.mu, q=tuple(q), epsilon=d.epsilon)


def test_fivefold_validates_ordinary():
    rep = validate(fivefold())
    assert rep.ok and rep.gm_type == ORDINARY
    assert fivefold().n == 5


def test_sixfold_validates_special():
    rep = validate(sixfold_special())
    assert rep.ok and rep.gm_type == SPECIAL
    assert sixfold_special().n == 6


def test_threefold_and_sigma_validate():
    assert validate(threefold()).ok
    assert threefold().n == 3
    assert validate(sigma_fixture()).ok
    assert sigma_fixture().n == 4


def test_perturbation_detected_with_witness():
    bad = perturbed(fivefold(), 0, 2, 5)
    rep = validate(bad)
    assert not rep.ok
    assert rep.witness is not None
    assert rep.witness[0] == 0


def test_asymmetric_q_detected():
    d = fivefold()
    q = [Matrix(m.copy_data()) for m in d.q]
    q[5].data[0][1] += 1
    rep = validate(GMData(n=5, mu=d.mu, q=tuple(q), epsilon=d.epsilon))
    assert not rep.ok and "symmetric" in rep.message


def test_classify_non_lci():
    # special shape but with a zero form on the kernel line
    d6 = sixfold_special()
    q = [Matrix(m.copy_data()) for m in d6.q]
    q[5].data[10][10] = Fraction(0)
    assert classify(GMData(n=6, mu=d6.mu, q=tuple(q), epsilon=d6.epsilon)) == NON_LCI


def blocks(d: GMData, w: Subspace) -> tuple[Matrix, ...]:
    """The q matrices written on the RREF basis of a summand of W."""
    return tuple(w.basis * m * w.basis.transpose() for m in d.q)


def test_split_ordinary():
    w0, w1, f = split_w(fivefold())
    assert w0 == Subspace.full(10)
    assert w1.dim == 0
    assert blocks(fivefold(), w0) == fivefold().q
    assert f == [0] * 10


def test_split_special_block_diagonal():
    d = sixfold_special()
    w0, w1, f = split_w(d)
    assert w1.dim == 1
    assert w0.dim == 10
    q1 = blocks(d, w1)
    assert q1[5] == Matrix([[1]])
    assert all(q1[i] == Matrix.zero(1, 1) for i in range(5))
    # block structure: cross terms of q(e6) between the summands vanish
    g = d.q[5]
    k = w1.basis_rows()[0]
    for row in w0.basis_rows():
        assert sum((k[i] * g.data[i][j] * row[j] for i in range(11) for j in range(11)), Fraction(0)) == 0


def lci_data() -> dict[str, GMData]:
    """The fixtures and their opposites: both types, n from 2 to 7."""
    fixtures = all_gm_fixtures()
    return {**fixtures, **{f"opposite {name}": opposite(d) for name, d in fixtures.items()}}


@pytest.mark.parametrize("name", sorted(lci_data()))
def test_split_functional_is_the_kernel_coordinate(name):
    d = lci_data()[name]
    w0, w1, f = split_w(d)
    assert w0.dim + w1.dim == d.w_dim and w0.meet_dim(w1) == 0
    if classify(d) == ORDINARY:
        assert w1.dim == 0 and f == [0] * d.w_dim
        return
    k = w1.basis_rows()[0]
    assert sum((a * b for a, b in zip(f, k)), Fraction(0)) == 1
    assert Subspace.from_rows(d.w_dim, [f]).annihilator() == w0


@pytest.mark.parametrize("name", sorted(lci_data()))
def test_kernel_rows_of_the_plucker_quadrics_vanish(name):
    # mu(k) = 0 makes row k of every Pluecker quadric zero, so the vector
    # check of the kernel form never fires on validated data
    d = lci_data()[name]
    assert validate(d).ok
    for k in d.ker_mu.basis_rows():
        for g in plucker_grams(d.int_mu[0]):
            assert not any(Matrix(g).left_apply(k))


def test_split_rejects_non_lci():
    d6 = sixfold_special()
    q = [Matrix(m.copy_data()) for m in d6.q]
    q[5].data[10][10] = Fraction(0)
    with pytest.raises(GmError):
        split_w(GMData(n=6, mu=d6.mu, q=tuple(q), epsilon=d6.epsilon))


def test_quadric_at_defining_identity():
    d = fivefold()
    rng = rng_from_seed(2)
    for i in range(5):
        g = oracles.plucker_gram(d.mu, i, d.epsilon)
        assert d.q_of(unit_vector(6, i)) == g
    assert d.q_of([0] * 6) == Matrix.zero(10, 10)
    assert d.q_of(unit_vector(6, 5)) == oracles.identity(10)
    # linearity in v
    va = random_nonzero_vector(rng, 6, 4)
    vb = random_nonzero_vector(rng, 6, 4)
    sum_g = d.q_of([a + b for a, b in zip(va, vb)])
    assert sum_g == oracles.add(d.q_of(va), d.q_of(vb))


def plucker_by_wedges(mu: Matrix, i: int, epsilon: Fraction) -> Matrix:
    """epsilon * top(e_i ^ mu(w_a) ^ mu(w_b)), one pair of wedges per entry."""
    ei = monomial(5, (i,))
    cols = [mu.col(a) for a in range(mu.cols)]
    return Matrix([[epsilon * wedge(5, 3, 2, wedge(5, 1, 2, ei, ca), cb)[0] for cb in cols] for ca in cols])


@pytest.mark.parametrize("epsilon", [Fraction(3), Fraction(-2, 5)])
def test_plucker_gram_is_the_wedge_identity(epsilon):
    rng = rng_from_seed(f"plucker-{epsilon}")
    mu = Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)] for _ in range(10)])
    flat, m = clear_denominators([x for row in mu.data for x in row])
    cols = list(zip(*[flat[k:k + 7] for k in range(0, 70, 7)]))
    for i, g in enumerate(plucker_grams(cols)):
        expected = plucker_by_wedges(mu, i, epsilon)
        assert Matrix([[epsilon * Fraction(x, m * m) for x in row] for row in g]) == expected
        assert oracles.plucker_gram(mu, i, epsilon) == expected


def test_membership_and_tangent():
    d = fivefold()
    w = hull_point_sample(d, seed=11)
    assert membership(d, w) in ("on_hull_only", "on_x")
    rng = rng_from_seed(3)
    off = 0
    for _ in range(10):
        if membership(d, random_nonzero_vector(rng, 10, 5)) == "off":
            off += 1
    assert off >= 8  # generic points are off
    with pytest.raises(GmError):
        membership(d, [0] * 10)
    # gradient rank at a sampled hull point is at most 6 and usually >= 4
    assert 1 <= Matrix([g.apply(w) for g in d.q]).rank() <= 6


def test_hull_points_satisfy_all_plucker_quadrics():
    for name, d in (("fivefold", fivefold()), ("threefold", threefold()), ("sigma", sigma_fixture())):
        for seed in range(8):
            w = hull_point_sample(d, seed)
            for i in range(5):
                g = d.q[i]
                val = sum(
                    (w[a] * g.data[a][b] * w[b] for a in range(d.w_dim) for b in range(d.w_dim)),
                    Fraction(0),
                )
                assert val == 0, (name, seed, i)


def test_opposite_round_trip():
    d = fivefold()
    d6 = opposite(d)
    assert classify(d6) == SPECIAL and d6.n == 6
    back = opposite(d6)
    assert back.n == d.n and back.mu == d.mu and back.q == d.q
    again = opposite(opposite(d6))
    assert again.mu == d6.mu and again.q == d6.q


def test_opposite_rejects_non_lci():
    d6 = sixfold_special()
    q = [Matrix(m.copy_data()) for m in d6.q]
    q[5].data[10][10] = Fraction(0)
    with pytest.raises(GmError):
        opposite(GMData(n=6, mu=d6.mu, q=tuple(q), epsilon=d6.epsilon))


def test_discriminant_division_fivefold():
    d = fivefold()
    rng = rng_from_seed(21)
    for _ in range(5):
        va = random_nonzero_vector(rng, 6, 4)
        vb = random_nonzero_vector(rng, 6, 4)
        if va[5] == 0 and vb[5] == 0:
            continue
        line = discriminant_on_line(d, va, vb)
        assert line.det_poly.degree <= 10
        assert line.plucker_mult >= d.n - 1
        assert line.dis_poly is not None
        assert line.dis_poly.degree <= 6
        # exact reconstruction: dis * lambda^(n-1) = det
        lam = __import__("gmepw.polynomials", fromlist=["Poly"]).Poly([va[5], vb[5]])
        assert line.dis_poly * lam ** (d.n - 1) == line.det_poly


def test_discriminant_line_special_and_threefold():
    for d in (sixfold_special(), threefold(), sigma_fixture()):
        rng = rng_from_seed(33)
        for _ in range(3):
            va = random_nonzero_vector(rng, 6, 3)
            vb = random_nonzero_vector(rng, 6, 3)
            if va[5] == 0 and vb[5] == 0:
                continue
            line = discriminant_on_line(d, va, vb)
            assert line.dis_poly is not None
            assert line.dis_poly.degree <= 6


def epsilon_fivefold(epsilon) -> GMData:
    """The fivefold's mu and q(e6) with the Pluecker quadrics scaled by epsilon."""
    d = fivefold()
    qs = tuple(oracles.plucker_gram(d.mu, i, epsilon) for i in range(5)) + (d.q[5],)
    return GMData(n=d.n, mu=d.mu, q=qs, epsilon=epsilon)


DISCRIMINANT_LINES = [
    ([1, 0, 2, -1, 0, 1], [0, 1, 1, 3, -2, 2]),
    ([Fraction(1, 2), 0, 1, Fraction(-1, 3), 2, 1], [1, Fraction(2, 5), 0, 1, -1, Fraction(3, 7)]),
    ([1, 2, 0, 0, Fraction(-3, 4), 0], [0, 0, 1, Fraction(5, 6), 1, Fraction(-2, 3)]),
]


def discriminant_data() -> dict[str, GMData]:
    """The fixtures, and the fivefold with non-integer q entries."""
    return {**all_gm_fixtures(), **{f"epsilon {e}": epsilon_fivefold(e) for e in (Fraction(3), Fraction(-2, 5))}}


@pytest.mark.parametrize("line", DISCRIMINANT_LINES)
@pytest.mark.parametrize("name", sorted(discriminant_data()))
def test_discriminant_against_rational_determinants(name, line):
    # the oracle is the formula the integer line determinant replaced: w + 1
    # rational determinants of q(v_a) + t q(v_b), interpolated
    d = discriminant_data()[name]
    assert validate(d).ok
    v_a, v_b = line
    qa, qb = d.q_of(v_a), d.q_of(v_b)
    expected = oracles.newton_interpolate(
        [(t, oracles.add(qa, oracles.scale(qb, t)).det()) for t in range(d.w_dim + 1)])
    got = discriminant_on_line(d, v_a, v_b)
    assert got.det_poly == expected
    lam = Poly([Fraction(v_a[5]), Fraction(v_b[5])])
    assert got.dis_poly * lam ** (d.n - 1) == expected


@pytest.mark.parametrize("line", DISCRIMINANT_LINES + [([1, 0, 2, -1, 0, 3], [0, 1, 1, 3, -2, 0])])
@pytest.mark.parametrize("name", sorted(discriminant_data()))
def test_discriminant_multiplicity_is_the_root_multiplicity(name, line):
    # the one chain of quotients by lambda gives the multiplicity that the
    # evaluate-and-divide oracle finds at lambda's root, or the degree drop
    # when the line meets the hyperplane at infinity (the last line)
    d = discriminant_data()[name]
    v_a, v_b = line
    got = discriminant_on_line(d, v_a, v_b)
    lam = Poly([Fraction(v_a[5]), Fraction(v_b[5])])
    if lam.degree == 1:
        mult = oracles.root_multiplicity(got.det_poly, -lam.coeffs[0] / lam.coeffs[1])
    else:
        mult = d.w_dim - got.det_poly.degree
    assert got.plucker_mult == mult
    assert got.mult_exceeds_expected == (mult > d.n - 1)
    assert got.dis_poly * lam ** (d.n - 1) == got.det_poly


def test_discriminant_takes_no_rational_determinant(monkeypatch):
    def refuse(self):
        raise AssertionError("Matrix.det called")

    monkeypatch.setattr(Matrix, "det", refuse)
    for d in all_gm_fixtures().values():
        line = discriminant_on_line(d, *DISCRIMINANT_LINES[1])
        assert line.dis_poly is not None


def test_lagrangian_to_gm_builds_no_rational_basis_of_a():
    from gmepw.correspondence import LagrangianData, lagrangian_to_gm

    for ld in all_lagrangian_fixtures().values():
        if ld.a1 == "inf":
            continue
        fresh = LagrangianData(a=Subspace(20, list(ld.a.int_rows), ld.a.pivots), a1=ld.a1)
        assert fresh.a._basis is None
        lagrangian_to_gm(fresh)
        assert fresh.a._basis is None


def test_discriminant_rejects_hyperplane_line():
    d = fivefold()
    with pytest.raises(GmError):
        discriminant_on_line(d, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])


def test_discriminant_rejects_dependent_points():
    d = fivefold()
    base = [1, 2, 0, 1, 3, 1]
    for direction in ([2 * x for x in base], [0] * 6):
        with pytest.raises(GmError, match="dependent"):
            discriminant_on_line(d, base, direction)


def test_discriminant_identically_zero_path():
    # a family singular everywhere: append a zero row/column to every form
    d = fivefold()
    mu = Matrix([row + [Fraction(0)] for row in d.mu.copy_data()])
    qs = []
    for m in d.q:
        block = [row + [Fraction(0)] for row in m.copy_data()]
        block.append([Fraction(0)] * 11)
        qs.append(Matrix(block))
    dd = GMData(n=6, mu=mu, q=tuple(qs), epsilon=d.epsilon)
    line = discriminant_on_line(dd, [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0])
    assert line.dis_is_everything
    assert line.dis_poly is None


def test_discriminant_matches_stratum_poly_with_multiplicity():
    # the reduced determinant and the stratum membership polynomial restrict
    # to the same polynomial on every line, multiplicities included
    from gmepw.correspondence import gm_to_lagrangian
    from gmepw.epw import stratum_poly_on_line

    d = fivefold()
    a = gm_to_lagrangian(d).a
    rng = rng_from_seed(77)
    done = 0
    while done < 3:
        va = random_nonzero_vector(rng, 6, 3)
        vb = random_nonzero_vector(rng, 6, 3)
        if va[5] == 0 and vb[5] == 0:
            continue
        line = discriminant_on_line(d, va, vb)
        cert = stratum_poly_on_line(a, va, vb, "y", seed=done)
        assert line.dis_poly.primitive() == cert.poly.primitive()
        done += 1


def test_discriminant_double_root_at_corank2_point(corank2_lagrangian):
    from gmepw.correspondence import lagrangian_to_gm
    from gmepw.epw import y_stratum

    ld = corank2_lagrangian
    assert y_stratum(ld.a, unit_vector(6, 5)) == 2
    d = lagrangian_to_gm(ld)
    assert validate(d).ok
    # corank of the quadric in the e6 direction is the stratum level
    assert d.w_dim - d.q_of(unit_vector(6, 5)).rank() == 2
    line = discriminant_on_line(d, unit_vector(6, 5), [1, 1, 0, 2, 1, 0])
    assert line.dis_poly is not None
    assert oracles.root_multiplicity(line.dis_poly, 0) == 2


def test_hull_sampler_on_special_data():
    d = sixfold_special()
    for seed in range(5):
        w = hull_point_sample(d, seed)
        assert membership(d, w) in ("on_hull_only", "on_x")


def test_hull_sampler_resamples_on_thin_image():
    # a small target space forces some sampled directions to admit no
    # partner, exercising the resampling path before success
    from gmepw.fixtures import fivefold

    big = fivefold()
    w_sub = Subspace.from_rows(
        10,
        [unit_vector(10, i) for i in (0, 3, 5, 6, 8, 9)],
    )
    mu = Matrix.from_cols(w_sub.basis_rows())
    qs = [oracles.plucker_gram(mu, i, Fraction(1)) for i in range(5)]
    rows = w_sub.basis_rows()
    q6 = Matrix(
        [[sum((x[k] * y[k] for k in range(10)), Fraction(0)) for y in rows] for x in rows]
    )
    qs.append(q6)
    d = GMData(n=w_sub.dim - 5, mu=mu, q=tuple(qs), epsilon=Fraction(1))
    assert d.n == 1
    assert validate(d).ok
    for seed in range(5):
        w = hull_point_sample(d, seed)
        assert membership(d, w) in ("on_hull_only", "on_x")


def test_smooth_point_certificate_on_found_rational_point(corank2_lagrangian):
    # frozen from an offline pencil search on the hull: the point lies on the
    # variety itself and the six gradients span exactly the expected rank 4
    from gmepw.correspondence import lagrangian_to_gm

    d = lagrangian_to_gm(corank2_lagrangian)
    w = [
        Fraction(22, 13),
        Fraction(1),
        Fraction(-2),
        Fraction(1),
        Fraction(9, 13),
        Fraction(-18, 13),
        Fraction(9, 13),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    ]
    assert membership(d, w) == "on_x"
    assert Matrix([g.apply(w) for g in d.q]).rank() == 4


# ---- the integer view against the Fraction formulas it replaced


def fractional_directions(seed, count=6) -> list[list[Fraction]]:
    rng = rng_from_seed(seed)
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(6)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(discriminant_data()))
def test_q_of_matches_the_sum_of_six_fraction_matrices(name):
    # discriminant_data holds the fixtures and the fivefold with epsilon 3 and -2/5
    d = discriminant_data()[name]
    for v in fractional_directions(f"q-of-{name}") + [unit_vector(6, i) for i in range(6)] + [[0] * 6]:
        assert d.q_of(v) == oracles.q_of(d, v), v


def single_entry_perturbations(d: GMData, delta: Fraction):
    """d with q(e_i)(a, b) moved by delta for i in e1..e5: alone (asymmetric
    unless a = b) and together with (b, a) (symmetric)."""
    for i in range(5):
        for a in range(d.w_dim):
            for b in range(d.w_dim):
                for entries in ([(a, b)], [(a, b), (b, a)]):
                    if len(entries) == 2 and a >= b:
                        continue
                    q = [Matrix._make(m.copy_data(), m.cols) for m in d.q]
                    for x, y in entries:
                        q[i].data[x][y] += delta
                    yield GMData(n=d.n, mu=d.mu, q=tuple(q), epsilon=d.epsilon)


@pytest.mark.parametrize("name", ["fivefold", "sixfold_special"])
def test_validate_matches_the_fraction_plucker_loop(name):
    d = all_gm_fixtures()[name]
    grams = [oracles.plucker_gram(d.mu, i, d.epsilon) for i in range(5)]
    count = 0
    for bad in single_entry_perturbations(d, Fraction(1, 3)):
        got, expected = validate(bad), oracles.validate_identities(bad, grams)
        assert not expected.ok
        assert (got.ok, got.message, got.witness) == (expected.ok, expected.message, expected.witness)
        count += 1
    assert count == 5 * (d.w_dim**2 + d.w_dim * (d.w_dim - 1) // 2)


@pytest.mark.parametrize("name", sorted(all_gm_fixtures()))
def test_hull_point_is_the_fraction_solve_point(name):
    d = all_gm_fixtures()[name]
    for seed in range(20):
        assert hull_point_sample(d, seed) == oracles.hull_point_sample(d, seed), seed


def test_gm_layer_runs_without_fraction_matrix_arithmetic(monkeypatch):
    # structural guard: none of these builds a Fraction matrix sum, scaled
    # matrix, product or solve
    from gmepw.correspondence import gm_to_lagrangian

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction matrix arithmetic in the GM layer")

    for method in ("scale", "__add__", "solve", "__mul__", "rref", "det"):
        monkeypatch.setattr(Matrix, method, refuse, raising=False)
    for name, fixture in all_gm_fixtures().items():
        d = GMData(n=fixture.n, mu=fixture.mu, q=fixture.q, epsilon=fixture.epsilon)  # empty caches
        assert validate(d).ok, name
        assert classify(d) in (ORDINARY, SPECIAL)
        split_w(d)
        assert discriminant_on_line(d, *DISCRIMINANT_LINES[1]).dis_poly is not None
        gm_to_lagrangian(d)
        assert classify(opposite(d)) != classify(d)
        assert membership(d, hull_point_sample(d, 0)) in ("on_hull_only", "on_x")


def test_equality_reads_the_stored_integer_rows(monkeypatch):
    # both constructors store q and mu over their least common denominators,
    # in the same containers, so equality compares integer rows and builds
    # no Fraction matrix for data made from integer rows
    for name, d in all_gm_fixtures().items():
        fresh = GMData(n=d.n, mu=d.mu, q=d.q, epsilon=d.epsilon)
        (cols, m), (qs, den) = fresh.int_mu, fresh.int_q

        def scaled(k, epsilon=d.epsilon):
            mu = ([[k * x for x in row] for row in zip(*cols)], k * m)
            return GMData.from_int_rows(d.n, mu, [([[k * x for x in r] for r in g], k * den) for g in qs], epsilon)

        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "from_int_rows", lambda *args: pytest.fail("Fraction matrix built"))
            ones, sixes = scaled(1), scaled(6)
            assert ones == sixes == fresh, name
            assert (ones.int_mu, ones.int_q) == (fresh.int_mu, fresh.int_q)
            assert scaled(1, 2 * d.epsilon) != ones
            assert "mu" not in ones.__dict__ and "q" not in sixes.__dict__
        assert ones.mu == d.mu and sixes.q == d.q


# ---- the integer lambda chain against the Fraction divmod chain


def diagonal_data(n: int, forms, den: int = 1) -> GMData:
    """Data whose quadric at v is diagonal with entries form_k(v) / den, so
    det(q(v_a) + t q(v_b)) is the product of the linear factors
    form_k(v_a) + t form_k(v_b); mu is zero, which the discriminant never
    reads.  Each form proportional to the e6 coordinate adds one factor
    lambda."""
    w = n + 5
    q = tuple(Matrix([[Fraction(forms[k][i], den) if k == j else 0 for j in range(w)] for k in range(w)])
              for i in range(6))
    return GMData(n=n, mu=Matrix.zero(10, w), q=q)


def line_outcome(fn, d, v_a, v_b):
    try:
        return "value", fn(d, v_a, v_b)
    except GmError as exc:
        return "error", str(exc)


@st.composite
def diagonal_lines(draw):
    """Diagonal data with n = 0..3, some of the w forms multiples of the e6
    coordinate, and a line through two rational points off the hyperplane."""
    n = draw(st.integers(0, 3))
    small = st.integers(-3, 3)
    e6 = st.builds(lambda c: [0] * 5 + [c], st.integers(1, 3) | st.integers(-3, -1))
    forms = draw(st.lists(e6 | st.lists(small, min_size=6, max_size=6), min_size=n + 5, max_size=n + 5))
    den = draw(st.sampled_from([1, 2, 6]))
    points = [[Fraction(x, s) for x in draw(st.lists(st.integers(-4, 4), min_size=6, max_size=6))]
              for s in draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))]
    return diagonal_data(n, forms, den), *points


@given(diagonal_lines())
@settings(max_examples=200, deadline=None)
def test_lambda_chain_matches_the_fraction_divmod_chain(case):
    # equal DiscriminantLine values, or the same GmError, for every n from 0
    d, v_a, v_b = case
    assume(Subspace.from_rows(6, [v_a, v_b]).dim == 2 and (v_a[5] or v_b[5]))
    assert line_outcome(discriminant_on_line, d, v_a, v_b) == line_outcome(oracles.discriminant_on_line, d, v_a, v_b)


GENERIC_FORMS = [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 2], [2, 0, -1, 2, 1, 3], [1, -1, 2, 0, 1, -2],
                 [3, 1, 1, -2, 0, 1], [-1, 2, 1, 1, 2, 1], [1, 1, -1, 3, 1, 2], [2, -2, 1, 1, 0, 1]]
E6 = [0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "n, lambda_factors, line, mult",
    [
        # lambda = 2 + 4 t has content 2; prim(lambda) = 1 + 2 t divides three times
        (3, 3, ([1, 0, 2, -1, 1, 2], [0, 1, 1, 3, -2, 4]), 3),
        (3, 2, ([1, 0, 2, -1, 1, 2], [0, 1, 1, 3, -2, 4]), 2),
        # a constant lambda: the line meets the hyperplane at infinity, and the
        # multiplicity is the degree drop
        (3, 3, ([1, 0, 2, -1, 1, 3], [0, 1, 1, 3, -2, 0]), 3),
        # multiplicity 4 above n - 1 = 1, through rational points
        (2, 4, ([Fraction(1, 2), 0, 1, Fraction(-1, 3), 2, 1], [1, Fraction(2, 5), 0, 1, -1, Fraction(3, 7)]), 4),
    ],
    ids=["content-2", "exactly-n-1", "constant-lambda", "above-n-1"],
)
def test_lambda_chain_cases(n, lambda_factors, line, mult):
    forms = [[k * x for x in E6] for k in range(1, lambda_factors + 1)] + GENERIC_FORMS[:n + 5 - lambda_factors]
    d = diagonal_data(n, forms, den=6)
    got = discriminant_on_line(d, *line)
    assert got == oracles.discriminant_on_line(d, *line)
    assert got.plucker_mult == mult
    assert got.mult_exceeds_expected == (mult > n - 1)
    lam = Poly([Fraction(line[0][5]), Fraction(line[1][5])])
    assert got.dis_poly * lam ** (n - 1) == got.det_poly


@pytest.mark.parametrize("line", [([1, 0, 2, -1, 1, -2], [0, 1, 1, 3, -2, 3]), ([1, 0, 2, -1, 1, -2], [0, 1, 1, 3, -2, 0])],
                         ids=["lambda-linear", "lambda-constant"])
def test_n_zero_reduced_form_is_det_times_lambda(line):
    # det = dis * lambda^(n - 1) at n = 0 on either branch: lambda = -2 + 3 t
    # is divided out of det once, and the constant -2 meets it at infinity
    d = diagonal_data(0, [E6] + GENERIC_FORMS[:4])
    got = discriminant_on_line(d, *line)
    lam = Poly([Fraction(line[0][5]), Fraction(line[1][5])])
    assert got.dis_poly == got.det_poly * lam
    assert (got.plucker_mult, got.mult_exceeds_expected) == (1, True)
    assert got == oracles.discriminant_on_line(d, *line)


def test_lambda_chain_rejects_a_non_divisible_determinant():
    # one factor lambda where n - 1 = 2 are expected
    d = diagonal_data(3, [[2 * x for x in E6]] + GENERIC_FORMS[:7])
    line = ([1, 0, 2, -1, 1, 2], [0, 1, 1, 3, -2, 4])
    with pytest.raises(GmError, match="not divisible by the expected hyperplane power"):
        discriminant_on_line(d, *line)
    assert line_outcome(oracles.discriminant_on_line, d, *line)[0] == "error"
