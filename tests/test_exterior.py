"""Wedge products, contraction conventions, the wedge symplectic form, and
decomposability."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmepw.exterior import (
    ExteriorBasis,
    MultiVector,
    divisor_space,
    exterior_power_matrix,
    inject,
    is_decomposable,
    l3v5_subspace,
    lambda_p,
    monomial_index,
    monomials,
    top_pairing,
    vector_to_multivector,
    wedge,
    wedge_cube,
    wedge_space,
    wedge_symplectic_space,
)
from gmepw.linalg import Matrix, Subspace, unit_vector
from gmepw.quadrics import is_lagrangian
from gmepw.sampling import random_invertible, random_nonzero_vector, rng_from_seed


def mono(*idx):
    return MultiVector.from_monomial(6, tuple(i - 1 for i in idx))


def test_monomial_order_is_lexicographic():
    mons = monomials(6, 3)
    assert len(mons) == 20
    assert mons[0] == (0, 1, 2)
    assert mons[1] == (0, 1, 3)
    assert mons[-1] == (3, 4, 5)
    assert list(mons) == sorted(mons)


def test_wedge_examples():
    assert wedge(mono(1, 2), mono(3)) == mono(1, 2, 3)
    assert wedge(mono(1, 2, 3), mono(4, 5, 6)) == mono(1, 2, 3, 4, 5, 6)
    out = wedge(mono(1, 3, 5), mono(2, 4, 6))
    assert out == mono(1, 2, 3, 4, 5, 6).scale(-1)


def test_wedge_bilinear_antisymmetric():
    rng = rng_from_seed(4)
    b2 = ExteriorBasis(6, 2)
    for _ in range(10):
        a = MultiVector(b2, random_nonzero_vector(rng, b2.size, 4))
        b = MultiVector(b2, random_nonzero_vector(rng, b2.size, 4))
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert ab.coords == ba.coords  # even-degree factors commute
        c = wedge(vector_to_multivector(random_nonzero_vector(rng, 6, 4)), a)
        d = wedge(a, vector_to_multivector(random_nonzero_vector(rng, 6, 4)))
        assert c.basis.degree == 3 and d.basis.degree == 3


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(mono(1, 2, 3, 4), mono(3, 4, 5))


def omega(x: MultiVector, y: MultiVector) -> Fraction:
    return wedge_symplectic_space().omega(x.coords, y.coords)


def test_symplectic_examples():
    assert omega(mono(1, 2, 3), mono(4, 5, 6)) == 1
    assert omega(mono(1, 2, 3), mono(1, 2, 4)) == 0
    assert omega(mono(1, 3, 5), mono(2, 4, 6)) == -1


@pytest.mark.parametrize("n, p", [(6, 3), (5, 3), (5, 2), (6, 1)])
def test_top_pairing_is_the_top_coefficient(n, p):
    # the sign of the concatenated monomial, counted by from_monomial
    t = top_pairing(n, p)
    for i, mi in enumerate(monomials(n, p)):
        for j, mj in enumerate(monomials(n, n - p)):
            assert t.data[i][j] == MultiVector.from_monomial(n, (*mi, *mj)).coords[0]


def test_symplectic_gram_antidiagonal_signs():
    g = top_pairing(6, 3)
    mons = monomials(6, 3)
    for i in range(20):
        for j in range(20):
            expected_nonzero = set(mons[i]) | set(mons[j]) == set(range(6))
            assert (g.data[i][j] != 0) == expected_nonzero
            if expected_nonzero:
                assert j == 19 - i
                assert g.data[i][j] in (Fraction(1), Fraction(-1))
    assert g.is_skew()
    assert g.det() != 0


def test_symplectic_skew_random():
    rng = rng_from_seed(8)
    b = ExteriorBasis(6, 3)
    for _ in range(10):
        x = MultiVector(b, random_nonzero_vector(rng, 20, 5))
        y = MultiVector(b, random_nonzero_vector(rng, 20, 5))
        assert omega(x, y) == -omega(y, x)


def test_lambda_convention():
    assert lambda_p(mono(1, 2, 3)).is_zero()
    assert lambda_p(mono(1, 2, 6)) == MultiVector.from_monomial(5, (0, 1))
    assert lambda_p(mono(1, 2, 3, 6)) == MultiVector.from_monomial(5, (0, 1, 2)).scale(-1)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_lambda_rank_and_kernel(p):
    cols = []
    for m in monomials(6, p):
        cols.append(lambda_p(MultiVector.from_monomial(6, m)).coords)
    mat = Matrix.from_cols(cols)
    from math import comb

    assert mat.rank() == comb(5, p - 1)
    # kernel is exactly the 5-space part
    from gmepw.linalg import kernel as ker

    k = ker(mat)
    idx = monomial_index(6, p)
    expected = Subspace.from_rows(
        len(monomials(6, p)),
        [
            [Fraction(i == idx[m]) for i in range(len(monomials(6, p)))]
            for m in monomials(5, p)
        ],
    )
    assert k == expected


def test_lambda_composed_with_injection_is_zero():
    rng = rng_from_seed(12)
    for p in (1, 2, 3):
        b5 = ExteriorBasis(5, p)
        mv = MultiVector(b5, random_nonzero_vector(rng, b5.size, 5))
        assert lambda_p(inject(mv)).is_zero()


def test_decomposable_examples():
    d = is_decomposable(mono(1, 2, 3))
    assert d is not None
    assert d == Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 2)])
    assert is_decomposable(mono(1, 2, 3) + mono(4, 5, 6)) is None
    assert divisor_space(mono(1, 2, 3) + mono(4, 5, 6)).dim == 0


def test_decomposable_partial_divisor_oracle():
    # e123 + e145 = e1 ^ (e23 + e45): by hand the divisor space is the e1 line
    a = mono(1, 2, 3) + mono(1, 4, 5)
    # independent oracle: for each basis vector, compute the wedge directly
    # as 15 coefficients and row-reduce the explicit 6 x 15 matrix
    rows = []
    for i in range(6):
        rows.append(wedge(vector_to_multivector(unit_vector(6, i)), a).coords)
    explicit = Matrix(rows)
    assert explicit.rank() == 5
    d = divisor_space(a)
    assert d.dim == 1
    assert d.contains(unit_vector(6, 0))
    assert is_decomposable(a) is None


def test_decomposable_recovers_vector():
    rng = rng_from_seed(19)
    for _ in range(10):
        u = random_nonzero_vector(rng, 6, 3)
        v = random_nonzero_vector(rng, 6, 3)
        w = random_nonzero_vector(rng, 6, 3)
        a = wedge(vector_to_multivector(u), wedge(vector_to_multivector(v), vector_to_multivector(w)))
        if a.is_zero():
            continue
        d = is_decomposable(a)
        assert d is not None and d.dim == 3
        rows = d.basis_rows()
        recovered = wedge(
            vector_to_multivector(rows[0]),
            wedge(vector_to_multivector(rows[1]), vector_to_multivector(rows[2])),
        )
        # recovered spans the same line
        ratio = None
        for x, y in zip(recovered.coords, a.coords):
            if (x == 0) != (y == 0):
                ratio = "mismatch"
                break
            if x != 0:
                r = x / y
                if ratio is None:
                    ratio = r
                assert r == ratio
        assert ratio not in (None, "mismatch")


def test_decomposable_rejects_zero():
    with pytest.raises(ValueError):
        is_decomposable(MultiVector.zero(6, 3))


def test_wedge_space_examples():
    e1 = Subspace.from_rows(6, [unit_vector(6, 0)])
    full = Subspace.full(6)
    v5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])
    assert wedge_space(e1, full).dim == 10
    assert wedge_space(e1, v5).dim == 6
    v3 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(3)])
    w = wedge_space(full, v3)
    assert w.dim == 10
    # derived cross-check: count independent monomial wedges by explicit rref
    gens = []
    for i in range(6):
        for a, b in combinations(range(3), 2):
            gens.append(
                wedge(
                    vector_to_multivector(unit_vector(6, i)),
                    wedge(
                        vector_to_multivector(unit_vector(6, a)),
                        vector_to_multivector(unit_vector(6, b)),
                    ),
                ).coords
            )
    assert Matrix(gens).rank() == 10


def test_wedge_space_lagrangian_families():
    rng = rng_from_seed(23)
    space = wedge_symplectic_space()
    full = Subspace.full(6)
    for _ in range(8):
        v = random_nonzero_vector(rng, 6, 4)
        fam = wedge_space(Subspace.from_rows(6, [v]), full)
        assert fam.dim == 10
        assert is_lagrangian(space, fam)
    for _ in range(8):
        rows = [random_nonzero_vector(rng, 6, 3) for _ in range(3)]
        v3 = Subspace.from_rows(6, rows)
        if v3.dim != 3:
            continue
        fam = wedge_space(full, v3)
        assert fam.dim == 10
        assert is_lagrangian(space, fam)


def test_l3v5_lagrangian():
    space = wedge_symplectic_space()
    assert l3v5_subspace().dim == 10
    assert is_lagrangian(space, l3v5_subspace())
    assert wedge_cube(Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])) == l3v5_subspace()


def test_exterior_power_matrix_functorial():
    rng = rng_from_seed(31)
    f = random_invertible(rng, 6, 2)
    g = random_invertible(rng, 6, 2)
    assert exterior_power_matrix(f * g, 3) == exterior_power_matrix(f, 3) * exterior_power_matrix(g, 3)
    assert exterior_power_matrix(Matrix.identity(6), 3) == Matrix.identity(20)


def wedge_by_merging(a: MultiVector, b: MultiVector) -> list[Fraction]:
    """Reference wedge: the per-pair loop over monomials, with the sign from
    the inversions of the concatenated index tuple."""
    n, p, q = a.basis.ambient_dim, a.basis.degree, b.basis.degree
    target = {m: i for i, m in enumerate(combinations(range(n), p + q))}
    out = [Fraction(0)] * comb(n, p + q)
    for mi, ca in zip(combinations(range(n), p), a.coords):
        for mj, cb in zip(combinations(range(n), q), b.coords):
            if ca and cb and not set(mi) & set(mj):
                cat = mi + mj
                inv = sum(x > y for k, x in enumerate(cat) for y in cat[k + 1:])
                out[target[tuple(sorted(cat))]] += (-1) ** inv * ca * cb
    return out


rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=40))


@st.composite
def multivector_pairs(draw):
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    a = draw(st.lists(rationals, min_size=comb(n, p), max_size=comb(n, p)))
    b = draw(st.lists(rationals, min_size=comb(n, q), max_size=comb(n, q)))
    return MultiVector.from_coords(n, p, a), MultiVector.from_coords(n, q, b)


@given(multivector_pairs())
@settings(max_examples=200, deadline=None)
def test_wedge_matches_per_pair_loop(pair):
    a, b = pair
    out = wedge(a, b)
    assert out.basis == ExteriorBasis(a.basis.ambient_dim, a.basis.degree + b.basis.degree)
    assert out.coords == wedge_by_merging(a, b)
    assert all(type(x) is Fraction for x in out.coords)


def test_wedge_table_signs_on_all_monomials():
    for p in range(4):
        for q in range(4):
            for mi in monomials(6, p):
                for mj in monomials(6, q):
                    a = MultiVector.from_monomial(6, mi)
                    b = MultiVector.from_monomial(6, mj)
                    assert wedge(a, b).coords == wedge_by_merging(a, b)


def span_by_fraction_wedges(xs, ys) -> Subspace:
    """x ^ y1 ^ y2 over the given rows, built in Fraction arithmetic."""
    gens = [wedge_by_merging(vector_to_multivector(x),
                             MultiVector.from_coords(6, 2, wedge_by_merging(vector_to_multivector(y1),
                                                                            vector_to_multivector(y2))))
            for x in xs for y1, y2 in combinations(ys, 2)]
    return Subspace.from_rows(20, gens)


@given(
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=1, max_size=4),
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=0, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_wedge_space_and_cube_match_fraction_spans(rows_u, rows_w):
    u = Subspace.from_rows(6, rows_u)
    w = Subspace.from_rows(6, rows_w)
    if u.dim:
        assert wedge_space(u, w) == span_by_fraction_wedges(u.basis_rows(), w.basis_rows())
    # the cube of w is spanned by x ^ y1 ^ y2 for x, y1, y2 in w
    assert wedge_cube(w) == span_by_fraction_wedges(w.basis_rows(), w.basis_rows())
