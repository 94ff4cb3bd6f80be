"""Wedge products, contraction conventions, the wedge symplectic form, and
decomposability."""

from fractions import Fraction
from itertools import combinations
from math import comb
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmepw.exterior import (
    SymplecticSpace,
    divisor_space,
    exterior_power_matrix,
    inject,
    is_decomposable,
    l3v5_subspace,
    lambda_p,
    monomial,
    monomial_index,
    monomials,
    top_pairing,
    wedge,
    wedge_space,
    wedge_symplectic_space,
)
from gmepw.linalg import Matrix, Subspace, det_int, unit_vector, vec_add
from gmepw.quadrics import is_lagrangian
from gmepw.sampling import random_invertible, random_nonzero_vector, rng_from_seed

import oracles


def mono(*idx):
    return monomial(6, tuple(i - 1 for i in idx))


def neg(x):
    return [-c for c in x]


def int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_monomial_order_is_lexicographic():
    mons = monomials(6, 3)
    assert len(mons) == 20
    assert mons[0] == (0, 1, 2)
    assert mons[1] == (0, 1, 3)
    assert mons[-1] == (3, 4, 5)
    assert list(mons) == sorted(mons)


def test_wedge_examples():
    assert wedge(6, 2, 1, mono(1, 2), mono(3)) == mono(1, 2, 3)
    assert wedge(6, 3, 3, mono(1, 2, 3), mono(4, 5, 6)) == mono(1, 2, 3, 4, 5, 6)
    out = wedge(6, 3, 3, mono(1, 3, 5), mono(2, 4, 6))
    assert out == neg(mono(1, 2, 3, 4, 5, 6))


def test_wedge_bilinear_antisymmetric():
    rng = rng_from_seed(4)
    for _ in range(10):
        a = random_nonzero_vector(rng, 15, 4)
        b = random_nonzero_vector(rng, 15, 4)
        ab = wedge(6, 2, 2, a, b)
        ba = wedge(6, 2, 2, b, a)
        assert ab == ba  # even-degree factors commute
        c = wedge(6, 1, 2, random_nonzero_vector(rng, 6, 4), a)
        d = wedge(6, 2, 1, a, random_nonzero_vector(rng, 6, 4))
        assert len(c) == len(d) == len(monomials(6, 3))


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(6, 4, 3, mono(1, 2, 3, 4), mono(3, 4, 5))


def omega(x, y) -> Fraction:
    return oracles.omega(wedge_symplectic_space(), x, y)


def test_symplectic_examples():
    assert omega(mono(1, 2, 3), mono(4, 5, 6)) == 1
    assert omega(mono(1, 2, 3), mono(1, 2, 4)) == 0
    assert omega(mono(1, 3, 5), mono(2, 4, 6)) == -1


@pytest.mark.parametrize("n, p", [(6, 3), (5, 3), (5, 2), (6, 1)])
def test_top_pairing_is_the_top_coefficient(n, p):
    # the sign of the concatenated monomial: 0 if an index repeats, else
    # -1 to the number of inversions
    t = top_pairing(n, p)
    for i, mi in enumerate(monomials(n, p)):
        for j, mj in enumerate(monomials(n, n - p)):
            cat = (*mi, *mj)
            inv = sum(x > y for k, x in enumerate(cat) for y in cat[k + 1:])
            assert type(t[i][j]) is int
            assert t[i][j] == (0 if set(mi) & set(mj) else (-1) ** inv)


def test_symplectic_gram_antidiagonal_signs():
    g = top_pairing(6, 3)
    mons = monomials(6, 3)
    for i in range(20):
        for j in range(20):
            expected_nonzero = set(mons[i]) | set(mons[j]) == set(range(6))
            assert (g[i][j] != 0) == expected_nonzero
            if expected_nonzero:
                assert j == 19 - i
                assert g[i][j] in (1, -1)
    assert oracles.transpose(Matrix(g)) == Matrix([[-x for x in row] for row in g])
    assert det_int(g) != 0


def test_symplectic_space_integer_form_and_validation():
    space = SymplecticSpace([])
    assert (space.total_dim, space.int_form) == (0, ([], 1))
    empty = SymplecticSpace([], 5)
    assert (empty.total_dim, oracles.form(empty)) == (0, oracles.zero(0, 0))
    half = SymplecticSpace([[0, 1], [-1, 0]], 2)
    assert half.int_form == ([[(1, 1)], [(0, -1)]], 2)
    assert oracles.form(half) == Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    built = SymplecticSpace([[0, 3], [-3, 0]], 6)
    assert oracles.form(built) == oracles.form(half) and oracles.omega(built, [1, 0], [0, 1]) == Fraction(1, 2)
    for rows in ([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError):
            SymplecticSpace(rows, 1)
        with pytest.raises(ValueError):
            SymplecticSpace(rows, 3)
    with pytest.raises(ValueError):
        SymplecticSpace([[0, 1, 0], [-1, 0, 0]])


def test_symplectic_skew_random():
    rng = rng_from_seed(8)
    for _ in range(10):
        x = random_nonzero_vector(rng, 20, 5)
        y = random_nonzero_vector(rng, 20, 5)
        assert omega(x, y) == -omega(y, x)


def test_lambda_convention():
    assert not any(lambda_p(3, mono(1, 2, 3)))
    assert lambda_p(3, mono(1, 2, 6)) == monomial(5, (0, 1))
    assert lambda_p(4, mono(1, 2, 3, 6)) == neg(monomial(5, (0, 1, 2)))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_lambda_rank_and_kernel(p):
    cols = []
    for m in monomials(6, p):
        cols.append(lambda_p(p, monomial(6, m)))
    mat = oracles.from_cols(cols)
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
        x = random_nonzero_vector(rng, comb(5, p), 5)
        assert not any(lambda_p(p, inject(p, x)))


def test_decomposable_examples():
    d = is_decomposable(mono(1, 2, 3))
    assert d is not None
    assert d == Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 2)])
    assert is_decomposable(vec_add(mono(1, 2, 3), mono(4, 5, 6))) is None
    assert divisor_space(vec_add(mono(1, 2, 3), mono(4, 5, 6))).dim == 0


def test_decomposable_partial_divisor_oracle():
    # e123 + e145 = e1 ^ (e23 + e45): by hand the divisor space is the e1 line
    a = vec_add(mono(1, 2, 3), mono(1, 4, 5))
    # independent oracle: for each basis vector, compute the wedge directly
    # as 15 coefficients and row-reduce the explicit 6 x 15 matrix
    rows = []
    for i in range(6):
        rows.append(wedge(6, 1, 3, unit_vector(6, i), a))
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
        a = wedge(6, 1, 2, u, wedge(6, 1, 1, v, w))
        if not any(a):
            continue
        d = is_decomposable(a)
        assert d is not None and d.dim == 3
        rows = d.basis_rows()
        recovered = wedge(6, 1, 2, rows[0], wedge(6, 1, 1, rows[1], rows[2]))
        # recovered spans the same line
        ratio = None
        for x, y in zip(recovered, a):
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
        is_decomposable([0] * 20)


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
            gens.append(wedge(6, 1, 2, unit_vector(6, i), wedge(6, 1, 1, unit_vector(6, a), unit_vector(6, b))))
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
    v5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])
    assert wedge_space(v5, v5) == l3v5_subspace()


def test_exterior_power_matrix_functorial():
    rng = rng_from_seed(31)
    f = random_invertible(rng, 6, 2)
    g = random_invertible(rng, 6, 2)
    assert exterior_power_matrix(int_mul(f, g), 3) == int_mul(exterior_power_matrix(f, 3), exterior_power_matrix(g, 3))
    assert exterior_power_matrix(identity_rows(6), 3) == identity_rows(20)


def wedge_by_merging(n: int, p: int, q: int, a, b) -> list[Fraction]:
    """Reference wedge: the per-pair loop over monomials, with the sign from
    the inversions of the concatenated index tuple."""
    target = {m: i for i, m in enumerate(combinations(range(n), p + q))}
    out = [Fraction(0)] * comb(n, p + q)
    for mi, ca in zip(combinations(range(n), p), a, strict=True):
        for mj, cb in zip(combinations(range(n), q), b, strict=True):
            if ca and cb and not set(mi) & set(mj):
                cat = mi + mj
                inv = sum(x > y for k, x in enumerate(cat) for y in cat[k + 1:])
                out[target[tuple(sorted(cat))]] += (-1) ** inv * ca * cb
    return out


rationals = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=40))


@st.composite
def form_pairs(draw):
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    q = draw(st.integers(0, n - p))
    a = draw(st.lists(rationals, min_size=comb(n, p), max_size=comb(n, p)))
    b = draw(st.lists(rationals, min_size=comb(n, q), max_size=comb(n, q)))
    return n, p, q, a, b


@given(form_pairs())
@settings(max_examples=200, deadline=None)
def test_wedge_matches_per_pair_loop(pair):
    n, p, q, a, b = pair
    out = wedge(n, p, q, a, b)
    assert len(out) == comb(n, p + q)
    assert out == wedge_by_merging(n, p, q, a, b)
    assert all(isinstance(x, Rational) for x in out)  # exact: ints or Fractions


def test_wedge_table_signs_on_all_monomials():
    for p in range(4):
        for q in range(4):
            for mi in monomials(6, p):
                for mj in monomials(6, q):
                    a, b = monomial(6, mi), monomial(6, mj)
                    assert wedge(6, p, q, a, b) == wedge_by_merging(6, p, q, a, b)


def span_by_fraction_wedges(xs, ys) -> Subspace:
    """x ^ y1 ^ y2 over the given rows, built in Fraction arithmetic."""
    gens = [wedge_by_merging(6, 1, 2, x, wedge_by_merging(6, 1, 1, y1, y2))
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
    # the cube of w, wedge_space(w, w), is spanned by x ^ y1 ^ y2 for x, y1, y2 in w
    if w.dim:
        assert wedge_space(w, w) == span_by_fraction_wedges(w.basis_rows(), w.basis_rows())
