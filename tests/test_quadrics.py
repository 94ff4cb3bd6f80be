"""The Lagrangian-quadric correspondence and isotropic reduction."""

import operator
from fractions import Fraction

import pytest

from gmepw.correspondence import extended_decomposition, extended_lagrangian
from gmepw.epw import plane_chart_rows, point_chart_rows
from gmepw.exterior import (SymplecticSpace, monomial_index, v5_subspace, wedge_gens, wedge_space,
                            wedge_symplectic_space)
from gmepw.fixtures import all_lagrangian_fixtures, fivefold_lagrangian
from gmepw.linalg import Matrix, Subspace, det_int, kernel, unit_vector
from gmepw.quadrics import (
    LagrangianDecomposition,
    QuadricOnSubspace,
    _induced_quadric,
    dual_quadric_via_pairing,
    gram_on_lagrangian,
    is_isotropic,
    is_lagrangian,
    isotropic_reduce,
    lagrangian_from_quadric,
    omega_orthogonal,
    quadric_pair_from_lagrangian,
    standard_doubled_space,
)
from gmepw.sampling import (
    random_lagrangian,
    random_nonzero_vector,
    random_vector,
    rng_from_seed,
    standard_lagrangian_pair,
)

import oracles


def lift(model, coords):
    """The combination of the complement rows of a quotient model."""
    out = [Fraction(0)] * model.outer.ambient_dim
    for c, row, p in zip(coords, model.comp_int_rows, model.comp_pivots):
        if c != 0:
            out = [a + Fraction(c * b, row[p]) for a, b in zip(out, row)]
    return out


def evaluate(q, v, w):
    """Value q(v, w) for ambient vectors lying in the span of the quadric."""
    cv, cw = oracles.coordinates_of(q.span, v), oracles.coordinates_of(q.span, w)
    assert cv is not None and cw is not None
    return oracles.vec_dot(cv, oracles.apply(q.gram, cw))


def pairing_gram(dec, a) -> Matrix:
    return Matrix.from_int_rows(*gram_on_lagrangian(dec, a), a.dim)


def kernel_lift(dec, a):
    g = pairing_gram(dec, a)
    rows = [oracles.left_apply(a.basis, r) for r in kernel(g).basis.data]
    return Subspace.from_rows(dec.space.total_dim, rows)


def transition_projection(dec, m):
    """Componentwise projection through the inverse of the stacked bases,
    read off one RREF of [l1; l2 | identity]: the formula project_rows
    replaced."""
    n = dec.space.total_dim
    stack = dec.l1.basis_rows() + dec.l2.basis_rows()
    red = Matrix([row + unit_vector(n, i) for i, row in enumerate(stack)]).rref()[0]
    coeffs = oracles.mul(m, Matrix([row[n:] for row in red.data]))
    d1 = dec.l1.dim
    c1 = Matrix([row[:d1] for row in coeffs.data], cols=d1)
    c2 = Matrix([row[d1:] for row in coeffs.data], cols=n - d1)
    return oracles.mul(c1, dec.l1.basis), oracles.mul(c2, dec.l2.basis)


def solved_induced_quadric(dec, a, side):
    """(span, gram) of the induced quadric by the formula _induced_quadric
    replaced: coordinates C of the RREF basis of W = pr(a) in the projected
    basis of a, one solve per row, then C G C^T for the gram G of
    omega(pr1 x, pr2 y) on the basis of a."""
    p1, p2 = transition_projection(dec, a.basis)
    projected = (p1, p2)[side - 1]
    w = Subspace.from_rows(dec.space.total_dim, projected.data)
    c = Matrix([oracles.solve(oracles.transpose(projected), row) for row in w.basis_rows()], cols=a.dim)
    g = oracles.mul(p1, oracles.form(dec.space), oracles.transpose(p2))
    return w, oracles.mul(c, g, oracles.transpose(c))


def assert_matches_the_solve_formulas(dec, a):
    n = dec.space.total_dim
    p1, p2, den = dec.project_rows(a.int_rows)
    projected = tuple(Matrix([[Fraction(x, den) for x in r] for r in p], cols=n) for p in (p1, p2))
    assert projected == transition_projection(dec, Matrix(a.int_rows, cols=n))
    for side in (1, 2):
        q = _induced_quadric(dec, a, side)
        assert (q.span, q.gram) == solved_induced_quadric(dec, a, side)


def transverse_lagrangians(space, rng):
    while True:
        l1, l2 = random_lagrangian(space, rng), random_lagrangian(space, rng)
        if l1.meet_dim(l2) == 0:
            return LagrangianDecomposition(space, l1, l2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_projection_and_induced_quadric_against_the_solve_formulas(m):
    # the coordinate split, and a split by two random Lagrangians whose
    # projector is far from a coordinate projection
    rng = rng_from_seed(800 + m)
    std = standard_doubled_space(m)
    for dec in (std, transverse_lagrangians(std.space, rng)):
        for _ in range(8):
            assert_matches_the_solve_formulas(dec, random_lagrangian(dec.space, rng))
        assert_matches_the_solve_formulas(dec, dec.l1)
        assert_matches_the_solve_formulas(dec, dec.l2)


def test_projection_and_induced_quadric_against_the_solve_formulas_on_wedges():
    rng = rng_from_seed(808)
    dec = standard_lagrangian_pair(wedge_symplectic_space())
    for _ in range(3):
        assert_matches_the_solve_formulas(dec, random_lagrangian(dec.space, rng))
    # the reductions of the first fibration at hyperplane points
    ext = extended_decomposition()
    a_hat = extended_lagrangian(fivefold_lagrangian())
    for v in ([1, 0, 0, 0, 0, 0], [1, 2, -1, 3, 1, 0]):
        iso = wedge_space(Subspace.from_rows(6, [v]), v5_subspace())
        iso22 = Subspace.from_rows(22, [r + (0, 0) for r in iso.int_rows])
        red = oracles.isotropic_reduce(ext, a_hat, iso22)
        assert_matches_the_solve_formulas(red.reduced, red.reduced_a)


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_integer_quadric_layer_matches_the_fraction_formulas(m, scale):
    # the fixture forms all have denominator 1 and reduced forms need not, so
    # the standard form is also scaled; the formulas are the Fraction ones the
    # integer rows replaced
    rng = rng_from_seed(f"integer-quadrics-{m}-{scale}")
    std = standard_doubled_space(m)
    std_rows = [[dict(r).get(j, 0) for j in range(2 * m)] for r in std.space.int_form[0]]
    space = SymplecticSpace([[scale.numerator * x for x in row] for row in std_rows], scale.denominator)
    assert space.int_form[1] == scale.denominator
    assert oracles.form(space) == oracles.scale(oracles.form(std.space), scale)
    dec = LagrangianDecomposition(space, std.l1, std.l2)
    form = oracles.form(space)
    for _ in range(10):
        a = random_lagrangian(space, rng)
        other = Subspace.from_rows(2 * m, [random_vector(rng, 2 * m, 3) for _ in range(rng.randint(0, 2 * m))])
        part = Subspace.from_rows(2 * m, a.basis_rows()[:rng.randint(0, m)])
        for s in (a, other, part):
            assert omega_orthogonal(space, s) == kernel(oracles.mul(s.basis, form))
            assert is_isotropic(space, s) == (
                oracles.mul(s.basis, form, oracles.transpose(s.basis)) == oracles.zero(s.dim, s.dim))
        iso_rows = [random_vector(rng, m, 3) + [Fraction(0)] * m for _ in range(rng.randint(0, m))]
        red = oracles.isotropic_reduce(dec, a, Subspace.from_rows(2 * m, iso_rows))
        model = red.model
        for s in (a, dec.l2, other, part):
            assert model.project_subspace(s) == model.project_contained(s.intersect(model.outer).int_rows)
        comp = Matrix([[Fraction(x, row[p]) for x in row]
                       for row, p in zip(model.comp_int_rows, model.comp_pivots)], cols=2 * m)
        assert oracles.form(red.reduced.space) == oracles.mul(comp, form, oracles.transpose(comp))
        assert_matches_the_solve_formulas(red.reduced, red.reduced_a)


def test_explicit_dim4_example():
    # L1 = span(f1, f2), L2 = span(f1*, f2*), A = span(f1 + f1*, f2)
    dec = standard_doubled_space(2)
    a = Subspace.from_rows(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    assert is_lagrangian(dec.space, a)
    g = pairing_gram(dec, a)
    assert g == Matrix([[1, 0], [0, 0]])
    assert kernel_lift(dec, a) == Subspace.from_rows(4, [[0, 1, 0, 0]])
    assert kernel_lift(dec, a) == a.intersect(dec.l1) + a.intersect(dec.l2)


def test_degenerate_lagrangian_a_equals_l1():
    dec = standard_doubled_space(3)
    q1, q2 = quadric_pair_from_lagrangian(dec, dec.l1)
    assert q1.span == dec.l1
    assert q1.gram == oracles.zero(q1.gram.rows, q1.gram.cols)
    assert q2.span.dim == 0
    assert q1.kernel_subspace() == dec.l1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_random_lagrangians_symmetry_kernel_duality(m):
    rng = rng_from_seed(100 + m)
    dec = standard_doubled_space(m)
    for _ in range(25):
        a = random_lagrangian(dec.space, rng)
        g = pairing_gram(dec, a)
        assert oracles.is_symmetric(g)
        assert kernel_lift(dec, a) == a.intersect(dec.l1) + a.intersect(dec.l2)
        q1, q2 = quadric_pair_from_lagrangian(dec, a)
        assert q1.span == omega_orthogonal(dec.space, a.intersect(dec.l2)).intersect(dec.l1)
        assert q2.span == omega_orthogonal(dec.space, a.intersect(dec.l1)).intersect(dec.l2)
        assert q1.kernel_subspace() == a.intersect(dec.l1)
        assert q2.kernel_subspace() == a.intersect(dec.l2)
        d2 = dual_quadric_via_pairing(dec, q1, 1)
        assert d2.span == q2.span and d2.gram == q2.gram
        d1 = dual_quadric_via_pairing(dec, q2, 2)
        assert d1.span == q1.span and d1.gram == q1.gram


def test_wedge_space_decomposition_symmetry():
    # the same checks on the 20-dimensional wedge form with a natural split
    rng = rng_from_seed(77)
    space = wedge_symplectic_space()
    dec = standard_lagrangian_pair(space)
    for _ in range(5):
        a = random_lagrangian(space, rng)
        g = pairing_gram(dec, a)
        assert oracles.is_symmetric(g)
        assert kernel_lift(dec, a) == a.intersect(dec.l1) + a.intersect(dec.l2)


def test_lagrangian_from_quadric_examples():
    # q(x) = x1^2 on the full plane
    q = QuadricOnSubspace(Subspace.full(2), ([[1, 0], [0, 0]], 1))
    a = lagrangian_from_quadric(q)
    assert a == Subspace.from_rows(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    # zero form on the zero span: the pure annihilator
    q0 = QuadricOnSubspace(Subspace.from_rows(2, []), ([], 1))
    a0 = lagrangian_from_quadric(q0)
    assert a0 == Subspace.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_roundtrip_quadric_to_lagrangian_and_back(m):
    rng = rng_from_seed(200 + m)
    dec = standard_doubled_space(m)
    for _ in range(20):
        # quadrics of every span dimension and rank
        span_rows = [random_vector(rng, m, 3) for _ in range(rng.randint(0, m))]
        span = Subspace.from_rows(m, span_rows)
        d = span.dim
        g0 = Matrix([[Fraction(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)])
        gram = Matrix([[g0.data[i][j] + g0.data[j][i] for j in range(d)] for i in range(d)])
        q = QuadricOnSubspace(span, (gram.data, 1))
        a = lagrangian_from_quadric(q)
        assert is_lagrangian(dec.space, a)
        p1, p2 = quadric_pair_from_lagrangian(dec, a)
        # p1 lives on l1 = first block; compare through the embedding
        assert [row[:m] for row in p1.span.basis_rows()] == span.basis_rows() or (
            p1.span.dim == 0 and span.dim == 0
        )
        assert p1.gram == gram


def test_roundtrip_lagrangian_to_quadric_and_back():
    rng = rng_from_seed(303)
    dec = standard_doubled_space(3)
    for _ in range(20):
        a = random_lagrangian(dec.space, rng)
        q1, _ = quadric_pair_from_lagrangian(dec, a)
        small_span = Subspace.from_rows(3, [r[:3] for r in q1.span.basis_rows()])
        q = QuadricOnSubspace(small_span, q1.int_gram)
        assert lagrangian_from_quadric(q) == a


def test_isotropic_reduce_identity_and_full():
    rng = rng_from_seed(404)
    dec = standard_doubled_space(3)
    a = random_lagrangian(dec.space, rng)
    red0 = oracles.isotropic_reduce(dec, a, Subspace.from_rows(6, []))
    assert red0.reduced.space.total_dim == 6
    assert red0.reduced_a.dim == a.dim
    redf = oracles.isotropic_reduce(dec, a, dec.l1)
    assert redf.reduced.space.total_dim == 0
    assert redf.reduced_a.dim == 0
    # the lift a meet I-perp: a itself for I = 0, and a meet l1 for I = l1
    assert isotropic_reduce(dec, a, []) == a
    assert isotropic_reduce(dec, a, dec.l1.int_rows) == a.intersect(dec.l1)


def test_isotropic_reduce_requires_containment():
    dec = standard_doubled_space(2)
    rng = rng_from_seed(1)
    a = random_lagrangian(dec.space, rng)
    with pytest.raises(ValueError):
        isotropic_reduce(dec, a, dec.l2.int_rows)


def test_isotropic_reduce_takes_any_spanning_rows_of_i():
    # the lift depends on I only: in the 22 coordinates the RREF rows of the
    # fibration families, their chart rows (6 and 7, a basis) and their raw
    # generators (10 and 15, dependent) give one lift, the meet of a with
    # I-perp; in the doubled spaces so do the RREF rows and a seeded
    # redundant spanning set (combinations, a zero row, a repeated row).
    # Any row outside l1 raises.
    rng = rng_from_seed("spanning-rows")
    ext, v5 = extended_decomposition(), v5_subspace().int_rows
    for ld in all_lagrangian_fixtures().values():
        a = extended_lagrangian(ld)
        for _ in range(3):
            v = random_nonzero_vector(rng, 5, 3) + [0]
            w = [random_nonzero_vector(rng, 5, 3) + [0] for _ in range(3)]
            if Subspace.from_rows(6, w).dim < 3:
                continue
            for chart, raw in ((point_chart_rows(v, 5), wedge_gens([v], v5)),
                               (plane_chart_rows(w, 5), wedge_gens(v5, w))):
                pad = [r + [0, 0] for r in raw]
                meet = a.intersect(omega_orthogonal(ext.space, Subspace.from_rows(22, pad)))
                for rows in (Subspace.from_rows(22, pad).int_rows, [r + [0, 0] for r in chart], pad):
                    assert isotropic_reduce(ext, a, rows) == meet
                off = [0] * 22
                off[monomial_index(6, 3)[(0, 1, 5)]] = 1  # e1 ^ e2 ^ e6 lies in l2
                for bad in (off, [x + y for x, y in zip(pad[0], off)]):
                    with pytest.raises(ValueError):
                        isotropic_reduce(ext, a, [r + [0, 0] for r in chart] + [bad])
    for m in (2, 3, 4):
        dec = standard_doubled_space(m)
        for k in range(m + 1):
            iso, a = isotropic_in(rng, dec.l1, k), random_lagrangian(dec.space, rng)
            rows = [list(r) for r in iso.int_rows]
            coeffs = [[rng.randint(-2, 2) for _ in rows] for _ in range(2)]
            combos = [[sum(c * r[j] for c, r in zip(cs, rows)) for j in range(2 * m)] for cs in coeffs]
            redundant = combos + rows[::-1] + [[0] * (2 * m)] + rows[:1]
            meet = a.intersect(omega_orthogonal(dec.space, iso))
            assert isotropic_reduce(dec, a, rows) == isotropic_reduce(dec, a, redundant) == meet
            with pytest.raises(ValueError):
                isotropic_reduce(dec, a, redundant + [[int(j == m) for j in range(2 * m)]])


@pytest.mark.parametrize("m", [3, 4])
def test_isotropic_reduce_formulas_and_restriction(m):
    rng = rng_from_seed(500 + m)
    dec = standard_doubled_space(m)
    for _ in range(20):
        a = random_lagrangian(dec.space, rng)
        idim = rng.randint(1, m - 1)
        rows = [random_vector(rng, m, 3) + [Fraction(0)] * m for _ in range(idim)]
        iso = Subspace.from_rows(2 * m, rows)
        red = oracles.isotropic_reduce(dec, a, iso)
        assert is_lagrangian(red.reduced.space, red.reduced_a)
        rq1, rq2 = quadric_pair_from_lagrangian(red.reduced, red.reduced_a)
        # closed forms: the span is the annihilator of (a meet l1)/(a meet I)
        # in the reduced l2, the kernel is (a meet (I + l2 meet I-perp))/(a meet I)
        model = red.model
        assert red.reduced.l1 == model.project_subspace(dec.l1)  # l1 lies in I-perp
        span_formula = omega_orthogonal(
            red.reduced.space, model.project_subspace(a.intersect(dec.l1))
        ).intersect(red.reduced.l2)
        kernel_formula = model.project_subspace(a.intersect(iso + dec.l2.intersect(model.outer)))
        assert rq2.span == span_formula
        assert rq2.kernel_subspace() == kernel_formula
        # independent oracle: restrict the big second quadric directly
        q1, q2 = quadric_pair_from_lagrangian(dec, a)
        for r1 in rq2.span.basis_rows():
            for r2 in rq2.span.basis_rows():
                lift1, lift2 = lift(model, r1), lift(model, r2)
                if q2.span.contains(lift1) and q2.span.contains(lift2):
                    assert evaluate(q2, lift1, lift2) == evaluate(rq2, r1, r2)


def test_reduction_recovers_l2bar_orthogonal():
    # choosing the isotropic as l1 meet the orthogonal of a chosen subspace of
    # l2 realizes the restriction to that subspace
    rng = rng_from_seed(606)
    dec = standard_doubled_space(4)
    a = random_lagrangian(dec.space, rng)
    l2bar_rows = [dec.l2.basis_rows()[i] for i in (0, 2)]
    l2bar = Subspace.from_rows(8, l2bar_rows)
    iso = dec.l1.intersect(omega_orthogonal(dec.space, l2bar))
    red = oracles.isotropic_reduce(dec, a, iso)
    # the reduced l2 is the projection of l2bar
    assert red.reduced.l2 == red.model.project_subspace(l2bar)
    assert dec.l2.intersect(omega_orthogonal(dec.space, iso)) == l2bar


def quadric_of_corank(rng, m, s, corank):
    """A quadric on a random s-dimensional span of k^m with exactly the given
    corank: the gram U^T D U for a diagonal D of rank s - corank and an
    invertible integer U."""
    while True:
        span = Subspace.from_rows(m, [random_vector(rng, m, 3) for _ in range(s)])
        u = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)]
        if span.dim == s and det_int(u) != 0:
            break
    d = [rng.choice([-3, -2, -1, 1, 2, 3]) if i < s - corank else 0 for i in range(s)]
    gram = [[sum(u[k][i] * d[k] * u[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
    q = QuadricOnSubspace(span, (gram, 1))
    assert q.corank == corank
    return q


def isotropic_in(rng, l1, k):
    """A random k-dimensional subspace of l1: l1 itself when k is its dimension."""
    if k == l1.dim:
        return l1
    while True:
        coeffs = [[rng.randint(-3, 3) for _ in l1.int_rows] for _ in range(k)]
        iso = Subspace.from_rows(l1.ambient_dim, [
            [sum(map(operator.mul, c, col)) for col in zip(*l1.int_rows)] for c in coeffs])
        if iso.dim == k:
            return iso


def quotient_coordinates(model, v):
    """The exact coordinates of v + I, for v in U, in the RREF complement
    basis of the quotient model: v reduced modulo I, read at the complement
    pivots (``remainder`` is L times that reduction)."""
    w, big = model.inner.remainder(v), model.inner.scaled_rows[1]
    return [Fraction(w[p], big) for p in model.comp_pivots]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_the_lift_carries_the_reduced_second_quadric(m):
    # the second quadric of the lift a meet I-perp against the oracle's
    # reduced second quadric on I-perp / I, for the Lagrangians of quadrics
    # of every corank on the full span and of full rank on spans of every
    # dimension (a meet l2 is the span's annihilator, so the second quadric
    # then has every corank), random Lagrangians, and I of every dimension
    # from 0 to m: reduced fibers of corank 2 and more, which no fixture
    # point reaches
    rng = rng_from_seed(f"lift-reduction-{m}")
    std = standard_doubled_space(m)
    coranks = set()
    for dec in (std, transverse_lagrangians(std.space, rng)):
        quadrics = [quadric_of_corank(rng, m, m, c) for c in range(m + 1)]
        quadrics += [quadric_of_corank(rng, m, m - c, 0) for c in range(1, m + 1)]
        lagrangians = [lagrangian_from_quadric(q) for q in quadrics]
        lagrangians += [random_lagrangian(dec.space, rng) for _ in range(2)]
        for a in lagrangians:
            for k in range(m + 1):
                iso = isotropic_in(rng, dec.l1, k)
                lift = isotropic_reduce(dec, a, iso.int_rows)
                assert lift == a.intersect(omega_orthogonal(dec.space, iso))
                red = oracles.isotropic_reduce(dec, a, iso)
                q, rq = _induced_quadric(dec, lift, 2), _induced_quadric(red.reduced, red.reduced_a, 2)
                assert (q.span.dim, q.corank) == (rq.span.dim, rq.corank)
                assert red.model.project_contained(q.span.int_rows) == rq.span
                coords = [quotient_coordinates(red.model, b) for b in q.span.basis_rows()]
                assert [[evaluate(rq, x, y) for y in coords] for x in coords] == oracles.copy_data(q.gram)
                coranks.add(rq.corank)
    assert coranks == set(range(m + 1))


def test_quadric_on_subspace_validation():
    with pytest.raises(ValueError):
        QuadricOnSubspace(Subspace.full(3), ([[1, 2], [2, 1]], 1))
    with pytest.raises(ValueError):
        QuadricOnSubspace(Subspace.full(3), ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 1))


def test_decomposition_validation():
    dec = standard_doubled_space(2)
    with pytest.raises(ValueError):
        LagrangianDecomposition(dec.space, dec.l1, dec.l1)
    bad = Subspace.from_rows(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        LagrangianDecomposition(dec.space, bad, dec.l2)
