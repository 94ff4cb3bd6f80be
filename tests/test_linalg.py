"""Exact linear algebra: canonical forms, subspace arithmetic, involutions."""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmepw.linalg import (
    Matrix,
    Subspace,
    _bareiss,
    _int_row,
    clear_denominators,
    det_int,
    int_image_and_lifts,
    kernel,
    over_lcd,
    over_pivots,
)
from gmepw.sampling import random_invertible, rng_from_seed

import oracles


def test_rref_identity():
    m = oracles.identity(3)
    red, rank = m.rref()[:2]
    assert red == m
    assert rank == 3


def test_rref_proportional_rows():
    red, rank = Matrix([[1, 2], [2, 4]]).rref()[:2]
    assert rank == 1
    assert red.data[0] == [Fraction(1), Fraction(2)]
    assert red.data[1] == [Fraction(0), Fraction(0)]


def test_rref_permutation():
    red, rank = Matrix([[0, 1], [1, 0]]).rref()[:2]
    assert red == oracles.identity(2)
    assert rank == 2


def test_rref_canonical_under_row_operations():
    rng = rng_from_seed(101)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = oracles.random_matrix(rng, rows, cols, 6)
        p = Matrix(random_invertible(rng, rows, 4))
        assert oracles.mul(p, m).rref()[:2] == m.rref()[:2]


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


@given(
    st.lists(
        st.lists(small_fractions, min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    m = Matrix(rows)
    red, rank = m.rref()[:2]
    again, rank2 = red.rref()[:2]
    assert again == red
    assert rank2 == rank


@given(
    st.lists(st.lists(small_fractions, min_size=5, max_size=5), min_size=1, max_size=4),
    st.lists(st.lists(small_fractions, min_size=5, max_size=5), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_dimension_formula_sum_intersection(rows_a, rows_b):
    a = Subspace.from_rows(5, rows_a)
    b = Subspace.from_rows(5, rows_b)
    total = a + b
    meet = a.intersect(b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert a.meet_dim(b) == meet.dim
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert total.contains_subspace(a) and total.contains_subspace(b)


def test_intersect_examples():
    e = oracles.identity(3).data
    a = Subspace.from_rows(3, [e[0], e[1]])
    b = Subspace.from_rows(3, [e[1], e[2]])
    assert a.intersect(b) == Subspace.from_rows(3, [e[1]])
    v = Subspace.full(3)
    assert v.intersect(v) == v
    x = Subspace.from_rows(2, [[1, 0]])
    y = Subspace.from_rows(2, [[0, 1]])
    assert x.intersect(y).dim == 0


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).intersect(Subspace.full(3))


def test_meet_dim_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).meet_dim(Subspace.full(3))


def test_kernel_image_annihilator_examples():
    assert kernel(oracles.zero(2, 2)) == Subspace.full(2)
    ann = Subspace.from_rows(3, [[1, 0, 0]]).annihilator()
    assert ann == Subspace.from_rows(3, [[0, 1, 0], [0, 0, 1]])
    m = Matrix([[1, 0], [1, 0]])
    img = Subspace.from_rows(2, [oracles.col(m, j) for j in range(m.cols)])
    assert img == Subspace.from_rows(2, [[1, 1]])


def test_annihilator_involution_and_reversal():
    rng = rng_from_seed(7)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(rng.randint(0, 5))
        ]
        s = Subspace.from_rows(6, rows)
        assert s.annihilator().annihilator() == s
        bigger = s + Subspace.from_rows(6, [[Fraction(rng.randint(-4, 4)) for _ in range(6)]])
        assert bigger.annihilator().dim <= s.annihilator().dim


def test_subspace_equality_is_canonical():
    a = Subspace.from_rows(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.from_rows(3, [[2, 2, 0], [1, 2, 1]])
    assert a == b
    assert a.basis == b.basis


def test_kernel_membership():
    m = Matrix([[1, 2, 3], [0, 1, 1]])
    k = kernel(m)
    for row in k.basis_rows():
        assert all(x == 0 for x in oracles.apply(m, row))
    assert k.dim == 1


def test_solve_and_inverse():
    rng = rng_from_seed(55)
    for _ in range(10):
        m = Matrix(random_invertible(rng, 4, 5))
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        x = oracles.apply(oracles.inverse(m), rhs)
        assert oracles.apply(m, x) == rhs
        assert x == oracles.solve(m, rhs)
        assert oracles.mul(m, oracles.inverse(m)) == oracles.identity(4)


def image_and_lifts(images: Matrix, sources: Matrix) -> tuple[Subspace, Matrix]:
    """The row space of images, and for each row of its RREF basis the same
    combination of the rows of sources, through ``int_image_and_lifts``."""
    if images.rows != sources.rows:
        raise ValueError("images and sources differ in row count")
    n = images.cols
    stack = [clear_denominators(a + b)[0] for a, b in zip(images.data, sources.data)]
    image, rows = int_image_and_lifts(stack, n)
    lifts = [[Fraction(x, r[c]) for x in r[n:]] for r, c in zip(rows, image.pivots)]
    return image, Matrix(lifts, cols=sources.cols)


@pytest.mark.parametrize("seed", range(8))
def test_image_and_lifts_against_the_row_space(seed):
    # rank-deficient images: random combinations of fewer generators
    rng = rng_from_seed(700 + seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    gens = oracles.random_matrix(rng, rng.randint(1, 4), cols, 4)
    images = oracles.mul(oracles.random_matrix(rng, rows, gens.rows, 3), gens)
    image, coeffs = image_and_lifts(images, oracles.identity(rows))
    expected = Subspace.from_rows(cols, images.data)
    assert image == expected
    assert image.basis_rows() == expected.basis_rows()
    assert oracles.mul(coeffs, images) == image.basis
    # other sources get the same combinations
    sources = oracles.random_matrix(rng, rows, rng.randint(1, 5), 4)
    assert image_and_lifts(images, sources) == (image, oracles.mul(coeffs, sources))


def test_image_and_lifts_of_nothing():
    image, lifts = image_and_lifts(oracles.zero(0, 3), oracles.zero(0, 2))
    assert image == Subspace.from_rows(3, []) and (lifts.rows, lifts.cols) == (0, 2)
    with pytest.raises(ValueError):
        image_and_lifts(oracles.identity(2), oracles.identity(3))


def test_det_matches_rank():
    rng = rng_from_seed(3)
    for _ in range(15):
        m = oracles.random_matrix(rng, 4, 4, 5)
        assert (m.det() != 0) == (m.rank() == 4)


def test_coordinates_of():
    s = Subspace.from_rows(4, [[1, 0, 2, 0], [0, 1, -1, 0]])
    v = [Fraction(3), Fraction(-2), Fraction(8), Fraction(0)]
    coords = oracles.coordinates_of(s, v)
    assert coords == [Fraction(3), Fraction(-2)]
    assert oracles.coordinates_of(s, [0, 0, 0, 1]) is None


def det_by_fraction_elimination(rows) -> Fraction:
    """Reference determinant: Gaussian elimination over Fraction with row
    swaps, independent of the integer kernel."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        pv = m[c][c]
        det *= pv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@st.composite
def square_rational_matrices(draw, max_n=12):
    """Square matrices up to max_n x max_n with many zeros; some are made
    singular by overwriting a row with a combination of two others."""
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(small_fractions), draw(small_fractions)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(square_rational_matrices())
@example([])
@example([[Fraction(0)]])
@example([[Fraction(-7, 3)]])
@example([[0, 1, 2], [3, 4, 5], [6, 7, 9]])  # zero leading pivot
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # zero pivots at every step
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])  # zero pivot after the first step
@example([[0, 0], [0, 5]])  # zero first column
@settings(max_examples=60, deadline=None)
def test_det_matches_fraction_elimination(rows):
    expected = det_by_fraction_elimination(rows)
    assert Matrix(rows, cols=len(rows)).det() == expected
    scales = [lcm(*(x.denominator for x in r)) for r in rows]
    int_rows = [[int(x * d) for x in r] for r, d in zip(rows, scales)]
    assert det_int(int_rows) == expected * prod(scales)


@given(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6), min_size=6,
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_det_int_large_entries(rows):
    result = det_int(rows)
    assert type(result) is int
    assert result == det_by_fraction_elimination(rows)


def test_det_shapes():
    assert Matrix([]).det() == 1
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).det()
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_det_signs_come_from_the_pop_positions():
    # det_int is the signed last pivot of the one Bareiss loop, the sign
    # (-1)^k for a pivot row popped from position k: each permutation matrix
    # of size 4 has the sign of its permutation, and a first column that is
    # zero except in an odd row pops the first pivot row from an odd position
    for perm in permutations(range(4)):
        rows = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
        sign = (-1) ** sum(x > y for x, y in combinations(perm, 2))
        assert det_int(rows) == det_by_fraction_elimination(rows) == sign
        assert Matrix(rows).det() == sign
    odd_row = [
        [[0, 2], [3, 5]],
        [[0, 1, 4], [-2, 3, 1], [0, 7, -5]],
        [[0, 3, 1, 2], [0, -1, 4, 0], [0, 2, 2, 5], [6, 1, -3, 7]],
        [[0, 2, 0, 1, 3], [5, -1, 2, 0, 1], [0, 0, 3, -2, 4], [0, 1, 1, 1, -1], [0, 4, -2, 3, 2]],
    ]
    for rows in odd_row:
        expected = det_by_fraction_elimination(rows)
        assert expected != 0
        assert det_int(rows) == expected
        assert Matrix(rows).det() == expected


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = rng_from_seed(202)
    for n in range(0, 13):
        for _ in range(3):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            if n >= 2 and rng.random() < 0.4:
                rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
            ref = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                      for r in rows for x in r]).det()
            got = Matrix(rows, cols=n).det()
            assert (got.numerator, got.denominator) == (ref.p, ref.q)


def rref_by_fraction_gauss_jordan(rows, cols):
    """Reference RREF: Gauss-Jordan over Fraction, first non-zero pivot in
    each column, every row normalized as soon as it becomes a pivot row."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, r, tuple(pivots)


@st.composite
def rational_matrices(draw, max_rows=8, max_cols=8):
    """Matrices from 0 x n and n x 0 up to 8 x 8: zero rows and columns,
    negative entries, denominators up to 10^12, and rank deficiency from
    rows overwritten by combinations of others."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.one_of(
        st.just(Fraction(0)),
        small_fractions,
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
    )
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        a, b = draw(small_fractions), draw(small_fractions)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if cols and draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in m:
            row[zero] = Fraction(0)
    return m, cols


@given(rational_matrices())
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[0, -3, 6], [-2, 4, 1], [0, 0, 0], [4, -8, -2]], 3))  # negative pivots, zero row
@example(([[Fraction(1, 10**12), Fraction(-7, 3)], [Fraction(10**6, 999999999989), 5]], 2))
@example(([[2, 4, 6, 8], [1, 2, 3, 4], [3, 6, 9, 12]], 4))  # rank one
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_gauss_jordan(case):
    rows, cols = case
    red, rank, pivots = Matrix(rows, cols=cols).rref()
    assert (red.data, rank, pivots) == rref_by_fraction_gauss_jordan(rows, cols)
    assert Matrix(rows, cols=cols).rank() == rank
    assert (red.rows, red.cols) == (len(rows), cols)
    assert all(type(x) is Fraction for row in red.data for x in row)


@st.composite
def integer_matrices(draw, max_rows=8, max_cols=8):
    """Integer matrices up to 8 x 8 with entries up to 10^12 in size: zero
    rows and columns, negative pivots, and rank deficiency from rows
    overwritten by integer combinations of others."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**12, 10**12))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, max(0, rows - 2)))):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        a, b = draw(st.integers(-10**6, 10**6)), draw(st.integers(-5, 5))
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in m:
            row[zero] = 0
    return m


@given(integer_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, -3, 6], [-2, 4, 1], [0, 0, 0], [4, -8, -2]])  # negative pivots, zero row
@example([[0, 0, 5], [0, 0, -7], [0, 2, 1]])  # zero first column, zero pivot after a step
@example([[2, 4, 6, 8], [1, 2, 3, 4], [-3, -6, -9, -12]])  # rank one
@example([[10**12, 1], [10**12 - 1, 1], [1, 0]])  # rank two, entries of 10^12
@settings(max_examples=200, deadline=None)
def test_int_rank_matches_the_fraction_oracle(rows):
    # the fraction-free rank against the Fraction elimination's; the input is
    # left as it was
    copy = [list(r) for r in rows]
    assert _bareiss(rows)[0] == rref_by_fraction_gauss_jordan(rows, len(rows[0]) if rows else 0)[1]
    assert rows == copy


def sylvester_hadamard(n: int) -> list[list[int]]:
    """The Sylvester-Hadamard matrix of order n = 2^k: rows of +-1 that are
    pairwise orthogonal, so |det| = n^(n/2) attains Hadamard's bound."""
    h = [[1]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def assert_kernel_matches_the_oracles(rows):
    cols = len(rows[0]) if rows else 0
    rank = rref_by_fraction_gauss_jordan(rows, cols)[1]
    assert _bareiss(rows)[0] == rank
    if len(rows) == cols:
        assert det_int(rows) == det_by_fraction_elimination(rows)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_packed_kernel_is_exact_at_hadamards_bound(n):
    # the slot width bounds every minor by Hadamard's inequality, which these
    # matrices attain: |det| = prod ||row_i|| = n^(n/2), for n = 1, 4, 16 the
    # bound 2^(s - 2) itself, so a width one bit short would misread it
    h = sylvester_hadamard(n)
    for rows in (h, [[-x for x in r] for r in h], h[1:] + h[:1]):
        assert_kernel_matches_the_oracles(rows)
        assert abs(det_int(rows)) == round(n ** (n / 2))


@pytest.mark.parametrize("k", [1, 31, 32, 63, 64, 65, 127, 200, 300])
def test_packed_kernel_with_entries_of_one_power_of_two(k):
    # one entry +-2^k a row: a slot per entry far wider than a machine word
    for perm in ((0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)):
        rows = [[(-1) ** i * 2 ** (k + i) if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        assert_kernel_matches_the_oracles(rows)
        assert_kernel_matches_the_oracles([r + [1, -1] for r in rows])
    mixed = [[2 ** k, 1, 0], [-3, 0, 2 ** k], [0, -(2 ** k), 5]]
    assert_kernel_matches_the_oracles(mixed)
    assert_kernel_matches_the_oracles([mixed[0], mixed[1], [x + y for x, y in zip(*mixed[:2])]])


def test_packed_kernel_on_zero_rows_columns_and_deficient_shapes():
    cases = [
        [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 3, 0], [0, 0, 0], [0, -1, 0]],
        [[0, 0, 2, 0, 1], [0, 0, -4, 0, -2], [0, 0, 0, 0, 0]],  # wide, rank one
        [[1, 2], [2, 4], [-3, -6], [0, 0], [5, 10]],  # tall, rank one
        [[1, 0, 2, 0, 3, 0], [0, 1, 0, 1, 0, 1], [1, 1, 2, 1, 3, 1], [2, -1, 4, -1, 6, -1]],  # wide, rank two
        [[x, 2 * x, 0] for x in range(-4, 5)] + [[0, 0, 7]],  # tall, rank two
        [[3, 0, 0], [0, 0, 0], [0, 0, 5]],  # square with a zero row and column
    ]
    for rows in cases:
        assert_kernel_matches_the_oracles(rows)
        assert_kernel_matches_the_oracles([list(r) for r in zip(*rows)])


def test_rank_modulo_packs_once_at_the_widest_width():
    # rows of very different heights take different slot widths; a subspace
    # keeps one packing of its unit remainders, at the widest width asked for
    # so far: narrower rows reuse it, and only a wider request repacks, once
    a = Subspace.from_rows(6, [[1, 0, 2, 0, -1, 3], [0, 3, 1, 0, 0, -2], [0, 0, 0, 5, 1, 1]])
    ra, _ = oracle_span(a.int_rows, 6)
    small = [[1, -1, 0, 2, 0, 1], [0, 1, 1, 0, 1, 0]]
    tall = [[3 ** 80, 0, 1, 0, 0, -(2 ** 90)], [0, 2 ** 70, 0, 1, 5 ** 40, 0], [1, 1, 1, 1, 1, 1]]

    def rank(rows):
        got = a.rank_modulo(rows)
        assert got == len(oracle_span(ra + rows, 6)[0]) - len(ra)
        return a._packed[1:]

    narrow = rank(small)
    assert rank(small) == narrow and rank(small)[1] is narrow[1]
    wide = rank(tall)
    assert wide[0] > narrow[0]
    widest = rank(small + tall)
    assert widest[0] > wide[0]
    for rows in (small, tall, small + tall, tall[:1]):
        width, units = rank(rows)
        assert width == widest[0] and units is widest[1]


@pytest.mark.parametrize("k", [0, 1, 5, 40])
def test_rank_modulo_is_exact_where_its_row_bound_is_attained(k):
    # modulo 0 the unit remainders are the unit vectors, and rows 2^k e_m meet
    # the bound (sum |w|) max ||U_m||: the last pivot 2^(4k + 3) is the bound
    # of every minor, and the dependent last row is reduced by it
    zero = Subspace.from_rows(3, [])
    rows = [[2 ** (k + 1), 0, 0], [0, 2 ** k, 0], [0, 0, 2 ** (2 * k + 2)], [0, 0, 1]]
    assert zero.rank_modulo(rows) == 3
    assert zero.rank_modulo(rows[1:]) == 2


def test_rank_modulo_with_a_large_pivot_lcm():
    # pivots of distinct large primes make L, and so every unit remainder,
    # large; the row bound (sum |w|) max ||U_m|| still sizes the slots
    primes = [2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1]
    rows = [[p if j == i else (-1) ** j * (j + 1) for j in range(7)] for i, p in enumerate(primes)]
    a = Subspace.from_rows(7, rows)
    assert lcm(*(r[c] for r, c in zip(a.int_rows, a.pivots))).bit_length() > 200
    ra, _ = oracle_span(a.int_rows, 7)
    rng = rng_from_seed("large-pivot-lcm")
    for _ in range(10):
        w = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            w.append(list(rows[0]))
        assert a.rank_modulo(w) == len(oracle_span(ra + w, 7)[0]) - len(ra)


@st.composite
def pencils(draw):
    """Integer rows r0 and r1 of one shape, some of them zero, a dependent
    last row in both when asked (a pencil of deficient rank at every
    parameter), a subspace of the same ambient space, and parameters (p, q)
    that always include p = 0, a negative p and q > 1."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entries = st.integers(-6, 6) | st.integers(-(2 ** 70), 2 ** 70)
    row = st.lists(entries, min_size=m, max_size=m)
    rows0, rows1 = ([draw(row) if draw(st.booleans()) else [0] * m for _ in range(n)] for _ in range(2))
    if n >= 3 and draw(st.booleans()):
        for rows in (rows0, rows1):
            rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    sub = Subspace.from_rows(m, draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), max_size=m)))
    params = draw(st.lists(st.tuples(st.integers(-80, 80), st.integers(-3, 6)), max_size=5))
    return rows0, rows1, sub, [(0, 1), (-7, 1), (5, 3), (-80, 5), *params]


@given(pencils())
@example(([], [], Subspace.from_rows(1, []), [(0, 1), (3, 2)]))
@example(([[1, 0], [0, 0]], [[0, 0], [0, 1]], Subspace.from_rows(2, [[1, 1]]), [(0, 1), (-2, 1), (4, 3)]))
@settings(max_examples=150, deadline=None)
def test_pencil_eliminations_match_bareiss_of_the_explicit_rows(pencil):
    # one width for every parameter, the rows packed once: the same (rank,
    # signed last pivot) as the one loop on q r0 + p r1 written out, and
    # modulo a subspace the same ranks as rank_modulo of those rows
    from gmepw.linalg import pencil_eliminations

    rows0, rows1, sub, params = pencil
    explicit = [[[q * x + p * y for x, y in zip(r0, r1)] for r0, r1 in zip(rows0, rows1)] for p, q in params]
    assert pencil_eliminations(rows0, rows1, params) == [_bareiss(rows) for rows in explicit]
    assert sub.pencil_ranks_modulo(rows0, rows1, params) == [sub.rank_modulo(rows) for rows in explicit]


@pytest.mark.parametrize("n", [1, 4, 16])
def test_pencil_width_is_exact_at_hadamards_bound(n):
    # with one of p, q always 0 the row bound is Hadamard's for the other
    # rows, which these matrices attain at 2^(s - 2) itself
    from gmepw.linalg import pencil_eliminations

    h, zero = sylvester_hadamard(n), [[0] * n for _ in range(n)]
    det = round(n ** (n / 2))
    assert pencil_eliminations(h, zero, [(0, 1), (5, 1)]) == [(n, det), (n, det)]
    assert pencil_eliminations(zero, h, [(1, 0), (-1, 0)]) == [(n, det), (n, det * (-1) ** n)]


def test_rref_rank_nullspace_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = rng_from_seed(303)
    for rows in range(1, 9):
        for cols in range(1, 11):
            data = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
                     for _ in range(cols)] for _ in range(rows)]
            if rows >= 2 and rng.random() < 0.5:
                data[-1] = [x - 3 * y for x, y in zip(data[0], data[1])]
            ref = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                            for r in data for x in r])
            m = Matrix(data, cols=cols)
            ref_red, ref_pivots = ref.rref()
            red, rank, pivots = m.rref()
            assert pivots == tuple(ref_pivots)
            assert rank == ref.rank()
            assert red.data == [[Fraction(int(x.p), int(x.q)) for x in ref_red.row(i)]
                                for i in range(rows)]
            null = [[Fraction(int(x.p), int(x.q)) for x in v] for v in ref.nullspace()]
            assert kernel(m) == Subspace.from_rows(cols, null)


def oracle_span(rows, n):
    """(non-zero RREF rows, pivots) of the span of rows, by the Fraction oracle."""
    m, rank, pivots = rref_by_fraction_gauss_jordan(rows, n)
    return m[:rank], pivots


def oracle_annihilator(rows, pivots, n):
    """Span of the standard null vectors of RREF rows, by the Fraction oracle."""
    null = []
    for f in (f for f in range(n) if f not in pivots):
        v = [Fraction(int(i == f)) for i in range(n)]
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        null.append(v)
    return oracle_span(null, n)


@st.composite
def subspace_cases(draw):
    """Two row sets in k^n (n <= 7) with negative entries, denominators up to
    10^12, and sometimes a duplicate and a zero row; non-zero scales for a
    reordered scaled copy of the first; coefficients of a combination of it."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)),
        small_fractions,
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
    )

    def row_set():
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
        if rows and draw(st.booleans()):
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
            rows.append([Fraction(0)] * n)
        return rows

    rows_a, rows_b = row_set(), row_set()
    nonzero = small_fractions.filter(bool)
    scales = draw(st.lists(nonzero, min_size=len(rows_a), max_size=len(rows_a)))
    coeffs = draw(st.lists(small_fractions, min_size=len(rows_a), max_size=len(rows_a)))
    return n, rows_a, rows_b, scales, coeffs


@given(subspace_cases())
@example((3, [[0, -3, 6], [-2, 4, 1], [0, 0, 0], [4, -8, -2]], [[0, -1, 0]], [-1, 3, 1, -2],
          [1, 1, 0, 0]))  # negative pivots, a zero row, a dependent row
@example((2, [[Fraction(1, 10**12), Fraction(-7, 3)]] * 2, [], [Fraction(-5, 2), 4], [1, -1]))
# meet_dim edge cases: self zero, self full, other zero, other inside self, other = self
@example((4, [], [[1, 2, 0, -1], [0, 3, 1, 1]], [], []))
@example((3, [[2, 1, 0], [0, -1, 3], [1, 0, 1]], [[1, -1, 2], [0, 0, 5]], [1, -2, 3], [0, 1, 1]))
@example((3, [[0, 4, -2]], [], [Fraction(1, 3)], [2]))
@example((4, [[1, 0, 2, 0], [0, 1, -1, 3]], [[2, -3, 7, -9]], [5, -1], [1, 2]))
@example((3, [[1, 2, 3], [0, 1, -1]], [[0, -2, 2], [2, 4, 6]], [-1, 7], [3, 0]))
@settings(max_examples=150, deadline=None)
def test_subspace_matches_fraction_oracle(case):
    n, rows_a, rows_b, scales, coeffs = case
    a, b = Subspace.from_rows(n, rows_a), Subspace.from_rows(n, rows_b)
    ra, pa = oracle_span(rows_a, n)
    rb, pb = oracle_span(rows_b, n)
    assert (a.basis.data, a.pivots, a.dim) == (ra, pa, len(ra))
    assert all(type(x) is Fraction for row in a.basis_rows() for x in row)
    # canonical: a reordered copy with every row rescaled is the same subspace
    scaled = Subspace.from_rows(n, [[s * Fraction(x) for x in r] for s, r in zip(scales, rows_a)][::-1])
    assert scaled == a and hash(scaled) == hash(a)
    assert (a == b) == (ra == rb)

    rs, ps = oracle_span(rows_a + rows_b, n)
    total = a + b
    assert (total.basis.data, total.pivots) == (rs, ps)
    assert a.meet_dim(b) == len(ra) + len(rb) - len(rs)
    assert a.contains_subspace(b) == (len(rs) == len(ra))

    ann_a, ann_b = oracle_annihilator(ra, pa, n), oracle_annihilator(rb, pb, n)
    ann = a.annihilator()
    assert (ann.basis.data, ann.pivots) == ann_a
    assert ann.annihilator() == a
    meet = a.intersect(b)
    assert (meet.basis.data, meet.pivots) == oracle_annihilator(*oracle_span(ann_a[0] + ann_b[0], n), n)
    assert meet.dim == a.meet_dim(b)

    v = [sum((c * Fraction(r[i]) for c, r in zip(coeffs, rows_a)), Fraction(0)) for i in range(n)]
    assert_remainder_is_linear_and_vanishes_on(a, ra, pa, [v, *rows_b])
    coords = oracles.coordinates_of(a, v)
    assert coords is not None
    assert [sum((c * r[i] for c, r in zip(coords, ra)), Fraction(0)) for i in range(n)] == v
    for w in rows_b:
        inside = len(oracle_span(ra + [w], n)[0]) == len(ra)
        assert (oracles.coordinates_of(a, w) is not None) == inside == a.contains(w)


def assert_remainder_is_linear_and_vanishes_on(a: Subspace, ra, pa, vectors):
    """remainder(w) = L (w - sum_r w[c_r] ra_r) against the Fraction RREF rows
    ra (pivots pa, pivot entries 1) and L the lcm of a's integer pivots: it
    vanishes exactly on a, is linear, and is the combination of the cached
    unit remainders on the free columns."""
    n = a.ambient_dim
    big = lcm(*(row[c] for row, c in zip(a.int_rows, a.pivots)))
    free = [c for c in range(n) if c not in pa]
    units = [a.remainder([int(i == m) for i in range(n)]) for m in range(n)]
    assert a.unit_remainders == tuple(tuple(u[c] for c in free) for u in units)
    ints = [clear_denominators([Fraction(x) for x in w])[0] for w in vectors]
    for w in ints:
        residual = [x - sum((w[c] * r[k] for r, c in zip(ra, pa)), Fraction(0)) for k, x in enumerate(w)]
        rem = a.remainder(w)
        assert rem == [big * x for x in residual]
        assert (not any(rem)) == (len(oracle_span(ra + [w], n)[0]) == len(ra))
        assert [rem[c] for c in free] == [sum(x * u[c] for x, u in zip(w, units)) for c in free]
    for u, w in zip(ints, ints[1:]):
        combo = [3 * x - 2 * y for x, y in zip(u, w)]
        assert a.remainder(combo) == [3 * x - 2 * y for x, y in zip(a.remainder(u), a.remainder(w))]


def test_int_row_passes_int_rows_and_clears_the_others():
    # a row of ints (a list or a tuple, or empty) comes back as itself; a
    # bool, a Fraction or a numeric string sends the row through its least
    # common denominator, so True reads as 1 there
    for row in ([3, -1, 0], (2, 5), []):
        assert _int_row(row) is row
    assert _int_row([True, 2, False]) == [1, 2, 0]
    assert _int_row([Fraction(1, 2), 3, "1/3"]) == [3, 18, 2]


@st.composite
def rational_blocks(draw):
    """Up to four matrices of ints and Fractions (some of value an integer,
    some with common factors left in the rows), each over a denominator."""
    entry = st.one_of(st.integers(-12, 12), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
    out = []
    for _ in range(draw(st.integers(0, 4))):
        rows, cols, k = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 6]))
        m = [[k * x for x in draw(st.lists(entry, min_size=cols, max_size=cols))] for _ in range(rows)]
        out.append((m, draw(st.sampled_from([1, 2, 3, 4, 12]))))
    return out


@given(rational_blocks())
@example([([[2, 4]], 6)])
@example([([[Fraction(1, 2), 1]], 3), ([[2]], 4)])
@example([([[0, 0]], 5)])
@settings(max_examples=200, deadline=None)
def test_over_lcd_is_the_least_common_denominator(blocks):
    mats, den = over_lcd(blocks)
    values = [[Fraction(x) / d for x in r] for m, d in blocks for r in m]
    assert [[Fraction(x, den) for x in r] for m in mats for r in m] == values
    assert den == lcm(*(v.denominator for r in values for v in r))
    assert all(type(r) is list and all(type(x) is int for x in r) for m in mats for r in m)


@pytest.mark.parametrize("seed", range(6))
def test_over_pivots_writes_the_rref_over_one_denominator(seed):
    rows = oracles.random_matrix(rng_from_seed(f"pivots-{seed}"), 4, 7).data
    s = Subspace.from_rows(7, rows)
    scaled, den = over_pivots(s.int_rows, s.pivots)
    assert den == lcm(*(r[c] for r, c in zip(s.int_rows, s.pivots)))
    assert [[Fraction(x, den) for x in r] for r in scaled] == rref_by_fraction_gauss_jordan(rows, 7)[0][:s.dim]
    assert s.scaled_rows == (scaled, den) and s.basis.data == rref_by_fraction_gauss_jordan(rows, 7)[0][:s.dim]
