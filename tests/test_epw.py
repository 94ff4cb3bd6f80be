"""Stratum levels, their dualities, line/pencil degree certificates, and
decomposable members of the Lagrangians."""

from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmepw.correspondence import A1_ZERO, LagrangianData, adjoin, dim_report, dualize
from gmepw.epw import (
    plane_chart_rows,
    point_chart_rows,
    stratum_poly_on_line,
    y_dual_stratum,
    y_stratum,
    z_stratum,
)
from gmepw.exterior import (
    is_decomposable,
    l3v5_subspace,
    monomial,
    top_pairing,
    wedge,
    wedge_gens,
    wedge_space,
    wedge_symplectic_space,
)
from gmepw.fibrations import sigma1_level, sigma2_level
from gmepw.fixtures import (
    all_lagrangian_fixtures,
    fivefold_lagrangian,
    sigma_fixture_lagrangian,
    sigma_form,
    threefold_lagrangian,
)
from gmepw.gm import GmError
from gmepw.linalg import Matrix, Subspace, _bareiss, clear_denominators, det_int, kernel, unit_vector
from gmepw.polynomials import Poly
from gmepw.sampling import random_lagrangian, random_nonzero_vector, rng_from_seed

import oracles

V5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])


def lagrangian_e1_wedge() -> Subspace:
    """e1 wedged with all 2-forms; Lagrangian with a fully degenerate stratum."""
    return wedge_space(Subspace.from_rows(6, [unit_vector(6, 0)]), Subspace.full(6))


def test_y_stratum_examples():
    a5 = l3v5_subspace()
    assert y_stratum(a5, unit_vector(6, 0)) == 6
    assert y_stratum(a5, unit_vector(6, 5)) == 0
    ae1 = lagrangian_e1_wedge()
    assert y_stratum(ae1, unit_vector(6, 1)) == 4
    with pytest.raises(GmError):
        y_stratum(a5, [0] * 6)


def test_y_stratum_degenerate_branch_whole_space():
    # the second trivial Lagrangian has every point in a deep stratum
    ae1 = lagrangian_e1_wedge()
    rng = rng_from_seed(14)
    for _ in range(10):
        v = random_nonzero_vector(rng, 6, 4)
        assert y_stratum(ae1, v) >= 4


def test_y_dual_stratum_examples():
    a5 = l3v5_subspace()
    assert y_dual_stratum(a5, V5) == 10
    v5p = Subspace.from_rows(6, [unit_vector(6, i) for i in range(1, 6)])
    assert y_dual_stratum(a5, v5p) == 4
    assert y_dual_stratum(fivefold_lagrangian().a, V5) == 0
    with pytest.raises(GmError):
        y_dual_stratum(a5, Subspace.from_rows(6, [unit_vector(6, 0)]))


def test_y_hat_examples():
    l3v5 = LagrangianData(a=l3v5_subspace(), a1=A1_ZERO)
    assert sigma1_level(l3v5, unit_vector(6, 0)) == 6
    rng = rng_from_seed(15)
    ld = fivefold_lagrangian()
    hits = 0
    for _ in range(10):
        v = random_nonzero_vector(rng, 5, 4) + [Fraction(0)]
        if sigma1_level(ld, v) > 0:
            hits += 1
    assert hits == 0  # the fivefold misses the incidence generically
    with pytest.raises(GmError):
        sigma1_level(l3v5, unit_vector(6, 5))
    with pytest.raises(GmError):
        sigma1_level(l3v5, [0] * 6)


def test_y_hat_refines_both_strata():
    # v ^ Lambda^2 V5 lies in v ^ Lambda^2 V6 and in Lambda^3 V5
    rng = rng_from_seed(16)
    for ld in (threefold_lagrangian(), sigma_fixture_lagrangian()):
        points = [unit_vector(6, 0)] + [random_nonzero_vector(rng, 5, 3) + [0] for _ in range(15)]
        for v in points:
            level = sigma1_level(ld, v)
            assert level <= y_stratum(ld.a, v)
            assert level <= y_dual_stratum(ld.a, V5)


def test_z_stratum_examples():
    a5 = l3v5_subspace()
    v3_inside = Subspace.from_rows(6, [unit_vector(6, i) for i in range(3)])
    assert z_stratum(a5, v3_inside.int_rows) == 7
    v3_mixed = Subspace.from_rows(6, [unit_vector(6, i) for i in (3, 4, 5)])
    val = z_stratum(a5, v3_mixed.int_rows)
    # cross-check against the dual computation
    dual = dualize(LagrangianData(a=a5, a1=A1_ZERO))
    assert val == z_stratum(dual.a, v3_mixed.annihilator().int_rows)
    with pytest.raises(GmError):
        z_stratum(a5, [unit_vector(6, 0), unit_vector(6, 1)])


def random_3space(rng, inside: Subspace) -> Subspace:
    """A random 3-space of the span of `inside`."""
    while True:
        coeffs = [random_nonzero_vector(rng, inside.dim, 3) for _ in range(3)]
        u = Subspace.from_rows(6, [oracles.left_apply(inside.basis, c) for c in coeffs])
        if u.dim == 3:
            return u


def lagrangian_through_cube(rng, u: Subspace) -> LagrangianData:
    """(A meet the orthogonal of xi) + xi for a random Lagrangian A and
    xi = u1 ^ u2 ^ u3: a Lagrangian through the decomposable form of u whose
    strata, unlike those of the shipped fixtures, are not symmetric under the
    standard identification of V6 with its dual."""
    a = random_lagrangian(wedge_symplectic_space(), rng)
    return LagrangianData(a=adjoin(a, wedge_space(u, u).int_rows[0]), a1=A1_ZERO)


def test_z_self_duality_random():
    rng = rng_from_seed(17)
    for ld in (fivefold_lagrangian(), sigma_fixture_lagrangian()):
        dual = dualize(ld)
        count = 0
        while count < 15:
            rows = [random_nonzero_vector(rng, 6, 3) for _ in range(3)]
            v3 = Subspace.from_rows(6, rows)
            if v3.dim != 3:
                continue
            assert z_stratum(ld.a, rows) == z_stratum(dual.a, v3.annihilator().int_rows)
            count += 1
    # the shipped strata are symmetric under V6 = its dual; these are not
    for _ in range(3):
        v3 = random_3space(rng, Subspace.full(6))
        ld = lagrangian_through_cube(rng, v3)
        assert z_stratum(ld.a, v3.int_rows) == z_stratum(dualize(ld).a, v3.annihilator().int_rows) >= 1


def stratum_lagrangians() -> list[Subspace]:
    """Every Lagrangian fixture, the hyperplane cube and e1 ^ (2-forms)."""
    fixtures = [ld.a for ld in all_lagrangian_fixtures().values()]
    return fixtures + [l3v5_subspace(), lagrangian_e1_wedge()]


def assert_levels_match_the_intersection(a: Subspace, v, v3: Subspace) -> tuple[int, int]:
    """y_stratum and z_stratum (rank modulo a, family dimension 10) against
    the meet with a basis of the family; returns the two levels."""
    full = Subspace.full(6)
    y = y_stratum(a, v)
    z = z_stratum(a, v3.int_rows)
    assert y == a.intersect(wedge_space(Subspace.from_rows(6, [v]), full)).dim
    assert z == a.intersect(wedge_space(full, v3)).dim
    return y, z


def test_stratum_levels_match_the_intersection_at_seeded_points():
    rng = rng_from_seed(20)
    for a in stratum_lagrangians():
        for _ in range(6):
            v = random_nonzero_vector(rng, 6, 4)
            assert_levels_match_the_intersection(a, v, random_3space(rng, Subspace.full(6)))


def family_forms(rng, v, v3: Subspace, k: int, n: int = 6) -> dict[str, list]:
    """k forms of the family at v (v ^ x ^ y) and k at v3 (x ^ w_a ^ w_b), for
    random x, y in the span of the first n coordinates."""
    def x():
        return random_nonzero_vector(rng, n, 3) + [0] * (6 - n)

    w = v3.basis_rows()
    pairs = list(combinations(range(3), 2))
    return {"y": [wedge(6, 1, 2, v, wedge(6, 1, 1, x(), x())) for _ in range(k)],
            "z": [wedge(6, 1, 2, x(), wedge(6, 1, 1, w[i], w[j])) for i, j in pairs[:k]]}


def through(a: Subspace, rows) -> Subspace:
    """A' = (A meet xi-perp) + xi, xi the span of the rows, adjoined one form
    at a time: a Lagrangian through xi when xi is isotropic, as every span of
    forms of one family is (each step keeps the forms adjoined before it, as
    they lie in the orthogonal of the next)."""
    assert Subspace.from_rows(20, rows).dim == len(rows)
    for row in rows:
        a = adjoin(a, row)
    return a


def test_stratum_levels_match_the_intersection_at_engineered_levels():
    # A' through k forms of the family at v or at W has level at least k there
    rng = rng_from_seed(21)
    levels = set()
    for a in stratum_lagrangians():
        for k in (1, 2, 3):
            v = random_nonzero_vector(rng, 6, 3)
            v3 = random_3space(rng, Subspace.full(6))
            for kind, rows in family_forms(rng, v, v3, k).items():
                y, z = assert_levels_match_the_intersection(through(a, rows), v, v3)
                level = y if kind == "y" else z
                assert level >= k
                levels.add(level)
    assert {1, 2, 3} <= levels


def test_pointwise_charts_away_from_the_last_coordinate():
    # the levels take the chart of the last i with v_i != 0 (the last R with
    # p_R != 0); here it is never the sixth coordinate (never 456): at e1, at
    # v with v6 = 0 and with v5 = v6 = 0, on span(e1, e2, e3) and on 3-spaces
    # of V5, each also on a Lagrangian through k forms of the family there
    rng = rng_from_seed(22)
    e123 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(3)])
    levels = set()
    for a in stratum_lagrangians():
        points = [(unit_vector(6, 0), e123),
                  (random_nonzero_vector(rng, 5, 3) + [0], random_3space(rng, V5)),
                  (random_nonzero_vector(rng, 4, 3) + [0, 0], random_3space(rng, V5))]
        for k, (v, v3) in enumerate(points, start=1):
            assert_levels_match_the_intersection(a, v, v3)
            for kind, rows in family_forms(rng, v, v3, k).items():
                y, z = assert_levels_match_the_intersection(through(a, rows), v, v3)
                levels.add(y if kind == "y" else z)
    assert {1, 2, 3} <= levels


def test_z_stratum_takes_any_basis_of_the_3_space():
    # the level depends only on W = the span of the rows: seeded integer
    # bases and their images under seeded invertible 3 x 3 integer changes of
    # basis give the level of the canonical rows, at generic 3-spaces and on
    # Lagrangians through k forms of the family there; dependent rows are
    # rejected
    rng = rng_from_seed(26)
    levels = set()
    for a in stratum_lagrangians():
        for k in (0, 1, 2, 3):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(3)]
            v3 = Subspace.from_rows(6, rows)
            if v3.dim != 3:
                continue
            a_k = through(a, family_forms(rng, [1] * 6, v3, k)["z"]) if k else a
            change = [[0] * 3] * 3
            while det_int(change) == 0:
                change = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            changed = [[sum(g[i] * r[j] for i, r in enumerate(rows)) for j in range(6)] for g in change]
            level = z_stratum(a_k, v3.int_rows)
            assert z_stratum(a_k, rows) == z_stratum(a_k, changed) == level >= k
            levels.add(level)
            x, y = rows[0], rows[1]
            for dependent in ([x, y, [2 * p - 3 * q for p, q in zip(x, y)]], [x, y, [0] * 6], [x, x, y]):
                with pytest.raises(GmError, match="dependent"):
                    z_stratum(a_k, dependent)
    assert {0, 1, 2, 3} <= levels


def test_repeated_levels_reuse_the_cached_unit_remainders(monkeypatch):
    # the rows of every level are combinations of A's unit remainders, read
    # off its scaled rows without running Subspace.remainder; the first level
    # at A builds them, and later y and z levels there reuse that tuple
    calls = []
    remainder = Subspace.remainder
    monkeypatch.setattr(Subspace, "remainder", lambda s, w: calls.append(s) or remainder(s, w))
    rng = rng_from_seed(23)
    for source in stratum_lagrangians():
        a = Subspace(20, list(source.int_rows), source.pivots)  # a fresh cache
        v, v3 = random_nonzero_vector(rng, 6, 4), random_3space(rng, Subspace.full(6))
        assert_levels_match_the_intersection(a, v, v3)
        units = a._units  # built by the first level
        assert units is not None
        for _ in range(4):
            y_stratum(a, random_nonzero_vector(rng, 6, 4))
            z_stratum(a, random_3space(rng, Subspace.full(6)).int_rows)
        assert a._units is units
        assert not any(s is a for s in calls)


def test_every_level_reuses_the_cached_unit_remainders(monkeypatch):
    # sigma1_level, sigma2_level, y_dual_stratum and dim_report rank their
    # rows by rank_modulo as well: after a first level at a fresh A, none of
    # them rebuilds its unit remainders or runs Subspace.remainder on A
    calls = []
    remainder = Subspace.remainder
    monkeypatch.setattr(Subspace, "remainder", lambda s, w: calls.append(s) or remainder(s, w))
    rng = rng_from_seed(24)
    for source in stratum_lagrangians():
        a = Subspace(20, list(source.int_rows), source.pivots)  # a fresh cache
        ld = LagrangianData(a=a, a1=A1_ZERO)
        y_stratum(a, random_nonzero_vector(rng, 6, 4))
        units = a._units  # built by the first level
        assert units is not None
        for _ in range(3):
            sigma1_level(ld, random_nonzero_vector(rng, 5, 3) + [0])
            sigma2_level(ld, random_3space(rng, V5))
            y_dual_stratum(a, kernel(Matrix([random_nonzero_vector(rng, 6, 4)])))
            dim_report(ld)
        assert a._units is units
        assert not any(s is a for s in calls)


def cube_forms(rng, h: Subspace, k: int) -> list:
    """k forms of Lambda^3 h: the cubes x ^ y ^ z of k random 3-spaces of h."""
    spaces = [random_3space(rng, h).int_rows for _ in range(k)]
    return [wedge(6, 1, 2, x, wedge(6, 1, 1, y, z)) for x, y, z in spaces]


def test_hyperplane_levels_match_the_intersection():
    # y_dual_stratum (family dimension 10) against the meet with
    # wedge_space(h, h) = Lambda^3 h at V5 and at seeded hyperplanes h, and
    # on a Lagrangian through k forms of Lambda^3 h, whose level is at least
    # k; at V5 the ell of dim_report is the same meet
    rng = rng_from_seed(25)
    hyperplanes = [V5] + [kernel(Matrix([random_nonzero_vector(rng, 6, 4)])) for _ in range(2)]
    levels = set()
    for a in stratum_lagrangians():
        for h in hyperplanes:
            for k in (0, 1, 2, 3):
                a_k = through(a, cube_forms(rng, h, k))
                level = y_dual_stratum(a_k, h)
                assert level == a_k.intersect(wedge_space(h, h)).dim >= k
                if h is V5:
                    ell = dim_report(LagrangianData(a=a_k, a1=A1_ZERO)).dim_a_cap_l3v5
                    assert ell == level
                levels.add(level)
    assert {0, 1, 2, 3} <= levels


def assert_sigma_levels_match_the_intersection(a: Subspace, v, v3: Subspace) -> tuple[int, int]:
    """sigma1_level (family dimension 6) and sigma2_level (7), by rank modulo
    a, against the meet with a basis of the family; returns the two levels."""
    ld = LagrangianData(a=a, a1=A1_ZERO)
    s1, s2 = sigma1_level(ld, v), sigma2_level(ld, v3)
    assert s1 == a.intersect(wedge_space(Subspace.from_rows(6, [v]), V5)).dim
    assert s2 == a.intersect(wedge_space(V5, v3)).dim
    return s1, s2


def test_sigma_levels_match_the_intersection():
    # at seeded points of V5, and on a Lagrangian through k forms of the
    # family there (x, y in V5), whose level is at least k
    rng = rng_from_seed(23)
    levels = set()
    for a in stratum_lagrangians():
        for k in (1, 2, 3):
            v = random_nonzero_vector(rng, 5, 3) + [0]
            v3 = random_3space(rng, V5)
            assert_sigma_levels_match_the_intersection(a, v, v3)
            for kind, rows in family_forms(rng, v, v3, k, n=5).items():
                s1, s2 = assert_sigma_levels_match_the_intersection(through(a, rows), v, v3)
                level = s1 if kind == "y" else s2
                assert level >= k
                levels.add(level)
    assert {1, 2, 3} <= levels


def point_with_last_coordinate(rng, i: int) -> list[int]:
    """A seeded integer point whose last non-zero coordinate is i."""
    return [rng.randint(-3, 3) for _ in range(i)] + [rng.choice([-2, -1, 1, 3])] + [0] * (5 - i)


def plane_with_chart(rng, chart) -> list[list[int]]:
    """3 integer rows of a W whose last 3-set with p_R != 0 is the chart:
    w_a = e_(r_a) + a seeded combination of the e_c, c < r_a.  Any 3-set
    S after R has a column past r_3, two columns past r_2 or three past r_1,
    where the rows are 0, so p_S = 0, while p_R = 1.  The rows are then
    changed by a seeded invertible 3 x 3 matrix, which keeps the span."""
    rows = [[rng.randint(-3, 3) if c < r else int(c == r) for c in range(6)] for r in chart]
    change = [[0] * 3] * 3
    while det_int(change) == 0:
        change = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
    return [[sum(g[a] * rows[a][j] for a in range(3)) for j in range(6)] for g in change]


def units(cols) -> list[list[int]]:
    return [[int(j == c) for j in range(6)] for c in cols]


def test_point_chart_rows_are_a_basis_of_the_family():
    # v ^ e_j ^ e_k over {j, k} avoiding the last index i with v_i != 0 is a
    # basis of v ^ Lambda^2 V5 (6 rows, i in 0..4) and of v ^ Lambda^2 V6
    # (10 rows, i in 0..5), at unit vectors and at seeded points
    rng = rng_from_seed(27)
    full = Subspace.full(6)
    for cols, space, size in ((5, V5, 6), (6, full, 10)):
        for i in range(cols):
            for v in units([i]) + [point_with_last_coordinate(rng, i) for _ in range(4)]:
                rows = point_chart_rows(v, cols)
                assert rows == wedge_gens([v], units(j for j in range(cols) if j != i))
                assert _bareiss(rows)[0] == len(rows) == size
                assert Subspace.from_rows(20, rows) == wedge_space(Subspace.from_rows(6, [v]), space)


def test_plane_chart_rows_are_a_basis_of_the_family():
    # w1 ^ w2 ^ w3 and e_c ^ w_a ^ w_b over c outside the chart R is a basis
    # of V5 ^ Lambda^2 W (7 rows) for every chart R in {0..4}, and of
    # V6 ^ Lambda^2 W (10 rows) for every R in {0..5}
    rng = rng_from_seed(28)
    full = Subspace.full(6)
    for cols, space, size in ((5, V5, 7), (6, full, 10)):
        for chart in combinations(range(cols), 3):
            for w in [units(chart)] + [plane_with_chart(rng, chart) for _ in range(3)]:
                rows = plane_chart_rows(w, cols)
                cube = wedge(6, 1, 2, w[0], wedge(6, 1, 1, w[1], w[2]))
                assert rows == [cube] + wedge_gens(units(c for c in range(cols) if c not in chart), w)
                assert _bareiss(rows)[0] == len(rows) == size
                assert Subspace.from_rows(20, rows) == wedge_space(space, Subspace.from_rows(6, w))


def plane_with_pivots(rng, pivots) -> Subspace:
    """A seeded W whose RREF has the given pivot columns: row a is e_(P_a)
    plus non-zero entries at the free columns past P_a (inside V5 when the
    pivots are)."""
    cols = 5 if max(pivots) < 5 else 6
    free = [c for c in range(cols) if c not in pivots]
    rows = [[int(c == p) + (rng.choice([-2, -1, 1, 3]) if c in free and c > p else 0) for c in range(6)]
            for p in pivots]
    w = Subspace.from_rows(6, rows)
    assert w.pivots == tuple(pivots)
    return w


def test_plane_chart_rows_at_the_pivots_are_a_sparse_basis():
    # W's RREF pivots P are a chart (p_P is the product of the pivot
    # entries): the rows charted there are a basis of the family for every
    # P, and over V5 each e_c ^ w_a ^ w_b has at most 3 non-zero entries
    rng = rng_from_seed(31)
    full = Subspace.full(6)
    for cols, space, size in ((5, V5, 7), (6, full, 10)):
        for pivots in combinations(range(cols), 3):
            for w in [Subspace.from_rows(6, units(pivots))] + [plane_with_pivots(rng, pivots) for _ in range(3)]:
                rows = plane_chart_rows(w.int_rows, cols, w.pivots)
                assert _bareiss(rows)[0] == len(rows) == size
                assert Subspace.from_rows(20, rows) == wedge_space(space, w)
                if cols == 5:
                    assert max(sum(1 for x in row if x) for row in rows[1:]) <= 3


def test_sigma_levels_match_the_meet_in_every_chart():
    # sigma1_level and sigma2_level (6 and 7 chart rows, rank modulo A)
    # against the meet of A with a basis of the family, by annihilators, in
    # every chart of V5, on the fixtures and on Lagrangians through k forms
    # of the family there
    rng = rng_from_seed(29)
    levels = set()
    for a in stratum_lagrangians():
        for i, chart in zip(range(5), [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4), (2, 3, 4)]):
            v, w = point_with_last_coordinate(rng, i), plane_with_chart(rng, chart)
            v3 = Subspace.from_rows(6, w)
            forms = family_forms(rng, v, v3, i % 3 + 1, n=5)
            for a_k in (a, through(a, forms["y"]), through(a, forms["z"])):
                ld = LagrangianData(a=a_k, a1=A1_ZERO)
                s1, s2 = sigma1_level(ld, v), sigma2_level(ld, v3)
                assert s1 == a_k.intersect(wedge_space(Subspace.from_rows(6, [v]), V5)).dim
                assert s2 == a_k.intersect(wedge_space(V5, v3)).dim
                levels.update((s1, s2))
    assert {0, 1, 2, 3} <= levels


def test_y_dual_equals_dual_y_random():
    rng = rng_from_seed(18)
    for ld in (fivefold_lagrangian(), threefold_lagrangian()):
        dual = dualize(ld)
        for _ in range(15):
            f = random_nonzero_vector(rng, 6, 4)
            v5p = kernel(Matrix([f]))
            assert y_dual_stratum(ld.a, v5p) == y_stratum(dual.a, f)
    # the shipped strata are symmetric under V6 = its dual; these are not
    for _ in range(3):
        f = random_nonzero_vector(rng, 6, 4)
        v5p = kernel(Matrix([f]))
        ld = lagrangian_through_cube(rng, random_3space(rng, v5p))
        assert y_dual_stratum(ld.a, v5p) == y_stratum(dualize(ld).a, f) >= 1


def test_certificate_l3v5_line():
    # for the 3-forms on the hyperplane the membership locus on a generic
    # line is the single parameter crossing the hyperplane
    a5 = l3v5_subspace()
    cert = stratum_poly_on_line(a5, [1, 0, 2, 0, 0, 1], [0, 1, 0, 1, 0, 1], "y", seed=2)
    assert not cert.contains_line
    # lambda(base + t dir) = 1 + t vanishes at t = -1, and nowhere else
    assert cert.degree >= 1
    assert cert.poly.monic() == Poly([1, 1]) ** cert.degree


def test_certificate_degrees_fivefold():
    a = fivefold_lagrangian().a
    cert = stratum_poly_on_line(a, [1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 1, 1], "y", seed=5)
    assert cert.degree == 6
    assert cert.sample_consistency >= 20
    certz = stratum_poly_on_line(
        a,
        ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0]),
        [1, 1, 0, 0, 0, 1],
        "z",
        seed=6,
    )
    assert certz.degree == 4
    assert certz.sample_consistency >= 20


def test_certificates_construct_fractions_only_for_the_output_poly():
    # the certificate path is integer from the generator rows to the final
    # Poly: under cProfile a y-line and a z-pencil certificate on Fraction
    # inputs (as the CLI parses them) construct a Fraction only where
    # Poly.__init__ coerces the integer quotient and its primitive part, two
    # per output coefficient, and none in interpolate, the chart division,
    # the sample parameters, the sample checks or the rank checks
    import cProfile
    import pstats

    a = fivefold_lagrangian().a
    line = [[Fraction(x) for x in v] for v in LINE]
    pencil = tuple([Fraction(x) for x in u] for u in PENCIL[0]), [Fraction(x) for x in PENCIL[1]]
    profile = cProfile.Profile()
    profile.enable()
    certs = [stratum_poly_on_line(a, *line, "y", seed=5), stratum_poly_on_line(a, *pencil, "z", seed=6)]
    profile.disable()
    stats = pstats.Stats(profile).stats

    def callers(module, function):  # calls per calling module
        found = [callers for (path, _, name), (*_, callers) in stats.items()
                 if (Path(path).name, name) == (module, function)]
        out = {}
        for (path, _, _), (calls, *_) in (found[0] if found else {}).items():
            out[Path(path).name] = out.get(Path(path).name, 0) + calls
        return out

    # every Fraction comes from rat; rat is reached from vec on the inputs,
    # which are Fractions already, and from the Poly coercion
    built = callers("fractions.py", "__new__")
    assert set(built) == {"linalg.py"}
    coerced = callers("linalg.py", "rat")
    assert set(coerced) <= {"linalg.py", "polynomials.py"}
    assert [cert.degree for cert in certs] == [6, 4]
    assert built["linalg.py"] == coerced["polynomials.py"] == 2 * sum(len(cert.poly.coeffs) for cert in certs)

    # and no Fraction arithmetic runs: from outside fractions.py only the
    # constructor, the numerator and denominator properties and the zero
    # test with which Poly.__init__ strips the output's trailing zeros (once
    # per output Poly) are entered.  Arithmetic enters fractions.py through
    # its operator functions whichever way it builds its result (from 3.12
    # on without __new__), so this part does not rest on the count above.
    entered = {name: outside for (path, _, name), (*_, callers) in stats.items()
               if Path(path).name == "fractions.py"
               and (outside := {Path(p).name for p, _, _ in callers} - {"fractions.py"})}
    assert set(entered) <= {"__new__", "numerator", "denominator", "__eq__"}, entered
    assert callers("fractions.py", "__eq__") == {"polynomials.py": 2 * len(certs)}


def test_certificate_contains_line_branch():
    # every point lies in the stratum of the fully degenerate Lagrangian
    ae1 = lagrangian_e1_wedge()
    cert = stratum_poly_on_line(ae1, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], "y", seed=3)
    assert cert.contains_line


def test_certificate_roots_match_membership():
    # engineered: a line through a known stratum point of the sigma fixture
    ld = sigma_fixture_lagrangian()
    assert y_stratum(ld.a, unit_vector(6, 0)) >= 1
    cert = stratum_poly_on_line(ld.a, unit_vector(6, 0), [0, 1, 0, 0, 1, 1], "y", seed=4)
    assert not cert.contains_line
    assert cert.poly(0) == 0  # the base point is a member


def test_scan_decomposables():
    a5 = l3v5_subspace()
    e123 = monomial(6, (0, 1, 2))
    assert a5.contains(e123)
    assert is_decomposable(e123) == Subspace.from_rows(6, [unit_vector(6, i) for i in range(3)])

    # random members of the fivefold Lagrangian: no hits expected
    rng = rng_from_seed(19)
    a = fivefold_lagrangian().a
    cands = []
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(10)]
        vec20 = [Fraction(0)] * 20
        for c, row in zip(coeffs, a.basis_rows()):
            if c:
                vec20 = [x + c * y for x, y in zip(vec20, row)]
        if any(x != 0 for x in vec20):
            cands.append(vec20)
    assert cands
    for x in cands:
        assert a.contains(x)
        assert is_decomposable(x) is None
    assert not a.contains(e123)


def test_scan_decomposables_pencil():
    ld = sigma_fixture_lagrangian()
    a = ld.a
    omega = sigma_form()
    # pencil through the distinguished rank-4 form and another member
    other = a.basis_rows()[3]
    assert a.contains(omega) and a.contains(other)
    scanned = 0
    for t in range(-5, 6):
        x = [u + t * v for u, v in zip(omega, other)]
        if not any(x):
            continue
        is_decomposable(x)
        scanned += 1
    assert scanned >= 10


@pytest.mark.parametrize(
    "base, direction",
    [([1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]), ([0] * 6, [0, 1, 0, 0, 0, 0]),
     ([1, 2, 0, 1, -1, 3], [0] * 6)],
)
def test_certificate_rejects_degenerate_line(base, direction):
    a = fivefold_lagrangian().a
    with pytest.raises(GmError, match="degenerate line"):
        stratum_poly_on_line(a, base, direction, "y", seed=1)


def test_certificate_rejects_constant_pencil():
    a = fivefold_lagrangian().a
    rows = ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0])
    inside = [2, -1, 3, 4, 8, -2]  # 2 u1 - u2 + 3 u3
    with pytest.raises(GmError, match="degenerate pencil"):
        stratum_poly_on_line(a, rows, inside, "z", seed=1)
    with pytest.raises(GmError, match="degenerate pencil"):
        stratum_poly_on_line(a, (rows[0], rows[0], rows[2]), [1, 1, 0, 0, 0, 1], "z", seed=1)


def test_certificate_rational_inputs_match_scaled_integers():
    # the integer pairing clears denominators with a t-independent scale, so
    # rescaling base and direction by the same factor leaves the certificate
    a = fivefold_lagrangian().a
    base, direction = [1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 1, 1]
    whole = stratum_poly_on_line(a, base, direction, "y", seed=5)
    third = [Fraction(x, 3) for x in base], [Fraction(x, 3) for x in direction]
    assert stratum_poly_on_line(a, *third, "y", seed=5).poly == whole.poly
    rows = ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0])
    pencil = stratum_poly_on_line(a, rows, [1, 1, 0, 0, 0, 1], "z", seed=6)
    halves = tuple([Fraction(x, 2) for x in r] for r in rows)
    half_dir = [Fraction(x, 2) for x in [1, 1, 0, 0, 0, 1]]
    assert stratum_poly_on_line(a, halves, half_dir, "z", seed=6).poly == pencil.poly




# ------------------------------------------------- the chart determinant


LINE = [1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 1, 1]
PENCIL = ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0]), [1, 1, 0, 0, 0, 1]
EXPONENT = {"y": 4, "z": 3}


def moving(base, direction, t):
    return [Fraction(b) + t * Fraction(d) for b, d in zip(base, direction)]


def chart_gens(kind, base, direction, chart, t):
    """The generators of chart i (kind y) or 3-set R (kind z) at t, as wedges
    of coordinate lists over the rationals."""
    e = [unit_vector(6, k) for k in range(6)]
    if kind == "y":
        v = moving(base, direction, t)
        return [wedge(6, 2, 1, wedge(6, 1, 1, v, e[j]), e[k])
                for j, k in combinations(range(6), 2) if chart not in (j, k)]
    w = [[Fraction(x) for x in u] for u in base[:2]]
    w.append(moving(base[2], direction, t))
    pairs = [wedge(6, 1, 1, x, y) for x, y in combinations(w, 2)]
    return [wedge(6, 1, 2, w[0], pairs[2])] + [wedge(6, 1, 2, e[k], p)
                                                for k in range(6) if k not in chart for p in pairs]


def chart_coordinate(kind, base, direction, chart) -> Poly:
    """v_i(t) (kind y) or the Plücker coordinate p_R(t) (kind z)."""
    if kind == "y":
        return Poly([base[chart], direction[chart]])

    def p(t):
        rows = (*base[:2], moving(base[2], direction, t))
        return Matrix([[Fraction(u[c]) for c in chart] for u in rows]).det()

    return Poly([p(0), p(1) - p(0)])


def charts(kind, base, direction):
    """Every chart whose coordinate is not identically 0, in the order the
    library searches them."""
    cands = range(6) if kind == "y" else combinations(range(6), 3)
    return [c for c in cands if not chart_coordinate(kind, base, direction, c).is_zero()]


def chart_certificate(a, kind, base, direction, chart) -> Poly:
    """The certificate through a given chart, by rational determinants of the
    pairing against the wedge generators on the nodes 0..10."""
    pair = Matrix([oracles.left_apply(Matrix(top_pairing(6, 3)), r) for r in a.basis_rows()])

    def det_at(t):
        gens = Matrix(chart_gens(kind, base, direction, chart, t))
        return oracles.mul(pair, oracles.transpose(gens)).det()

    d = oracles.newton_interpolate([(t, det_at(t)) for t in range(11)])
    return oracles.exact_div(d, chart_coordinate(kind, base, direction, chart) ** EXPONENT[kind]).primitive()


RATIONAL_FAMILIES = {
    "y": ([Fraction(1, 2), 2, 0, 1, Fraction(-1, 3), 3], [1, Fraction(1, 5), 1, -2, 1, 1]),
    "z": (([1, Fraction(1, 2), 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, Fraction(1, 3), 1, 2, 0]),
          [1, 1, 1, 0, 0, 1]),
}


def test_membership_poly_equals_rational_pairing_determinant():
    # with fractional inputs the integer chart determinant is the rational
    # pairing determinant times the t-independent scales, and it is the
    # chart coordinate to the power 4 (3) times the certificate
    from gmepw.epw import _lagrangian_family_gens, _membership_poly

    a = sigma_fixture_lagrangian().a
    pair_rows = [oracles.left_apply(Matrix(top_pairing(6, 3)), r) for r in a.basis_rows()]
    for kind, (base, direction) in RATIONAL_FAMILIES.items():
        chart = charts(kind, base, direction)[0]
        c = chart_coordinate(kind, base, direction, chart)
        assert c.degree == 1  # so a wrong exponent changes the quotient
        # the vectors share one denominator; each generator is linear in v
        # (y), or in w1, w2, w3 (z: 1 + 9 x 2)
        vectors = [base, direction] if kind == "y" else [*base, direction]
        flat, den = clear_denominators([Fraction(x) for v in vectors for x in v])
        *fixed, start, step = [flat[k:k + 6] for k in range(0, len(flat), 6)]
        gens, lib_chart = _lagrangian_family_gens(kind, fixed, start, step)
        d = Poly(_membership_poly(a, gens))
        scale = den ** (10 if kind == "y" else 21)
        for row in pair_rows:
            scale *= clear_denominators(row)[1]
        for t in (Fraction(0), Fraction(7), Fraction(-5, 3)):
            gen_rows = Matrix(chart_gens(kind, base, direction, chart, t))
            assert d(t) == scale * oracles.mul(Matrix(pair_rows), oracles.transpose(gen_rows)).det() != 0
        assert Poly(list(lib_chart)).primitive() == c.primitive()
        f = stratum_poly_on_line(a, base, direction, kind, seed=8).poly
        expected = c ** EXPONENT[kind] * f
        assert d == expected.scale(d.leading() / expected.leading()), kind


@pytest.mark.parametrize(
    "kind, base, direction, first",
    [
        ("y", *LINE, 0),
        ("y", [0, 1, 2, -1, 0, 3], [0, 2, -1, 1, 1, 0], 1),  # v1 = 0
        ("y", [0, 0, 1, 2, -1, 1], [0, 0, 1, 0, 3, -2], 2),  # v1 = v2 = 0
        ("z", *PENCIL, (0, 1, 2)),
        # every vector has e1-coordinate 0, so every p_1jk = 0
        ("z", ([0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 2], [0, 1, 1, 1, 2, 0]), [0, 1, -1, 0, 2, 1],
         (1, 2, 3)),
        # the first two columns are equal, so every p_12k = 0
        ("z", ([1, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 2], [2, 2, 1, 1, 2, 0]), [1, 1, -1, 0, 2, 1],
         (0, 2, 3)),
    ],
    ids=["line", "line-v1-zero", "line-v1-v2-zero", "pencil", "pencil-e1-zero", "pencil-p123-zero"],
)
def test_certificate_equals_the_certificate_through_other_charts(kind, base, direction, first):
    # D / c^e does not depend on the chart; the library takes the first chart
    # whose coordinate is not identically 0, the test the others
    a = fivefold_lagrangian().a
    cert = stratum_poly_on_line(a, base, direction, kind, seed=9)
    assert not cert.contains_line and cert.degree == (6 if kind == "y" else 4)
    found = charts(kind, base, direction)
    assert found[0] == first
    if first not in (0, (0, 1, 2)):  # a wrong exponent changes the quotient
        assert chart_coordinate(kind, base, direction, first).degree == 1
    others = found[1:] if kind == "y" else [found[1], found[-1]]
    for chart in others:
        assert chart_certificate(a, kind, base, direction, chart) == cert.poly, chart


@pytest.mark.parametrize("kind", ["y", "z"])
def test_sample_check_rejects_a_wrong_certificate(kind, monkeypatch):
    # on e1 ^ (2-forms) every point is a member; a chart determinant equal to
    # the chart factor power leaves the certificate 1, which vanishes nowhere
    import gmepw.epw as epw

    base, direction = LINE if kind == "y" else PENCIL
    chart = charts(kind, base, direction)[0]
    factor = chart_coordinate(kind, base, direction, chart) ** EXPONENT[kind]
    assert all(c.denominator == 1 for c in factor.coeffs)
    monkeypatch.setattr(epw, "_membership_poly", lambda a, gens: [c.numerator for c in factor.coeffs])
    with pytest.raises(GmError, match="certificate disagrees with pointwise membership"):
        stratum_poly_on_line(lagrangian_e1_wedge(), base, direction, kind, seed=10)


def oracle_sample_parameters(seed) -> tuple[list[Fraction], bool]:
    """The 20 sample parameters of a certificate drawn as rationals, t =
    num / den from the seeded RNG with a value already drawn skipped, and
    whether a value was drawn again in other terms (2/2 after 1/1)."""
    rng = rng_from_seed(f"{seed}-membership-check")
    first = {}
    other_terms = False
    while len(first) < 20:
        num, den = rng.randint(-80, 80), rng.randint(1, 5)
        t = Fraction(num, den)
        other_terms |= first.setdefault(t, (num, den)) != (num, den)
    return list(first), other_terms


@pytest.mark.parametrize("kind", ["y", "z"])
def test_sample_points_are_the_seeded_rational_parameters(kind, monkeypatch):
    # the certificate is checked at the reduced (p, q) of the rational draws,
    # in their order and each value once: its levels are taken at those
    # parameters and it is evaluated there; a seed that draws a value again
    # in other terms tells this from a dedupe on the raw draws
    import gmepw.epw as epw

    a = fivefold_lagrangian().a
    base, direction = LINE if kind == "y" else PENCIL
    sample_levels, vanishes = epw._sample_levels, epw._vanishes_at
    other_terms = []
    for seed in range(6):
        ranked, evaluated = [], []

        def record_levels(a, kind, fixed, start, step, params):
            ranked.extend(params)
            return sample_levels(a, kind, fixed, start, step, params)

        def record_value(coeffs, p, q):
            evaluated.append((p, q))
            return vanishes(coeffs, p, q)

        monkeypatch.setattr(epw, "_sample_levels", record_levels)
        monkeypatch.setattr(epw, "_vanishes_at", record_value)
        assert epw.stratum_poly_on_line(a, base, direction, kind, seed=seed).sample_consistency == 20
        params, again = oracle_sample_parameters(seed)
        other_terms.append(again)
        assert ranked == evaluated == [(t.numerator, t.denominator) for t in params], seed
    assert any(other_terms)


def pointwise_level(a, kind, fixed, start, step, p, q) -> int:
    moving = [q * x + p * y for x, y in zip(start, step)]
    return y_stratum(a, moving) if kind == "y" else z_stratum(a, [*fixed, moving])


def sample_families(rng, cols):
    """A seeded y-line and z-pencil inside the span of e_0..e_(cols-1), each as
    (kind, fixed, start, step) with independent vectors."""
    def draw(count):
        while True:
            rows = [random_nonzero_vector(rng, cols, 3) + [0] * (6 - cols) for _ in range(count)]
            if Subspace.from_rows(6, rows).dim == count:
                return rows

    start, step = draw(2)
    *fixed, w3, w4 = draw(4)
    return [("y", [], start, step), ("z", fixed, w3, w4)]


LEVEL_LAGRANGIANS = {**{name: ld.a for name, ld in all_lagrangian_fixtures().items()}, "l3v5": l3v5_subspace()}


@pytest.mark.parametrize("name", sorted(LEVEL_LAGRANGIANS))
def test_pencil_level_is_the_pointwise_level_at_every_sample(name):
    # where the last chart's coordinate c(p / q) is not 0, that chart is the
    # point's own last chart, and the pencil q G0 + p G1 of its rows ranks to
    # the level y_stratum (z_stratum) takes there; lines and pencils inside
    # V5 have their last chart below 5, and A adjoined 1 or 2 forms of the
    # family at one sample has level 1 or 2 or more there
    from gmepw.epw import _sample_levels

    a0 = LEVEL_LAGRANGIANS[name]
    rng = rng_from_seed(f"pencil-levels-{name}")
    found = set()
    for cols in (6, 6, 5, 5):
        for kind, fixed, start, step in sample_families(rng, cols):
            last = charts(kind, [*fixed, start] if kind == "z" else start, step)[-1]
            assert (last < 5 if kind == "y" else 5 not in last) == (cols == 5)
            for seed in range(2):
                params = [(t.numerator, t.denominator) for t in oracle_sample_parameters(seed)[0]]
                p, q = params[seed]
                moving = [q * x + p * y for x, y in zip(start, step)]
                family = point_chart_rows(moving, 6) if kind == "y" else plane_chart_rows([*fixed, moving], 6)
                for a in (a0, through(a0, family[:1 + seed])):
                    levels = _sample_levels(a, kind, fixed, start, step, params)
                    assert levels == [pointwise_level(a, kind, fixed, start, step, p, q) for p, q in params]
                    found.update(levels)
    assert {0, 1, 2} <= found


@pytest.mark.parametrize("kind", ["y", "z"])
def test_sample_levels_fall_back_where_the_last_chart_vanishes(kind, monkeypatch):
    # a line (pencil) whose last chart coordinate v_5 (p_345) is -p + q t
    # vanishes at the drawn sample p / q: the pointwise level runs there and
    # only there, and the certificate still checks all 20 samples
    import gmepw.epw as epw

    a = sigma_fixture_lagrangian().a
    seed = 3
    params = [(t.numerator, t.denominator) for t in oracle_sample_parameters(seed)[0]]
    p, q = params[4]
    if kind == "y":
        fixed, start, step = [], [1, 2, 0, 1, -1, -p], [0, 1, 1, -2, 1, q]
    else:  # columns 3, 4, 5 of w1, w2 are e_3, e_4, so p_345 = (w3)_5
        fixed, start, step = [[1, 0, 2, 1, 0, 0], [0, 1, -1, 0, 1, 0]], [0, 0, 1, 2, -1, -p], [1, 1, 0, 0, 2, q]
    assert Subspace.from_rows(6, [*fixed, start, step]).dim == len(fixed) + 2
    assert charts(kind, [*fixed, start] if kind == "z" else start, step)[-1] == (5 if kind == "y" else (3, 4, 5))
    name = f"{kind}_stratum"
    level = getattr(epw, name)
    points = []

    def record(a, x):
        points.append(list(x) if kind == "y" else list(x[2]))
        return level(a, x)

    monkeypatch.setattr(epw, name, record)
    levels = epw._sample_levels(a, kind, fixed, start, step, params)
    fallback = [q * x + p * y for x, y in zip(start, step)]
    assert points == [fallback] and fallback[5] == 0
    assert levels == [pointwise_level(a, kind, fixed, start, step, p, q) for p, q in params]
    points.clear()
    base = (*fixed, start) if kind == "z" else start
    assert epw.stratum_poly_on_line(a, base, step, kind, seed=seed).sample_consistency == 20
    assert points == [fallback]


def test_sample_parameters_are_twenty_distinct_reduced_values(monkeypatch):
    # the (p, q) at which the certificate is evaluated, for a seed whose
    # draws are not all in lowest terms and repeat a value in other terms:
    # twenty distinct t = p / q, each with gcd(p, q) = 1 and q > 0
    import gmepw.epw as epw

    seen = []
    vanishes = epw._vanishes_at

    def record(coeffs, p, q):
        seen.append((p, q))
        return vanishes(coeffs, p, q)

    monkeypatch.setattr(epw, "_vanishes_at", record)
    assert epw.stratum_poly_on_line(fivefold_lagrangian().a, *LINE, "y", seed=4).sample_consistency == 20
    assert len(seen) == 20 and len({Fraction(p, q) for p, q in seen}) == 20
    assert all(q > 0 and gcd(p, q) == 1 for p, q in seen)
    assert seen[:7] == [(10, 1), (-17, 1), (-40, 1), (-26, 1), (14, 1), (40, 1), (-69, 2)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=7), st.integers(-80, 80), st.integers(1, 5),
       st.booleans())
def test_vanishing_at_p_over_q_in_integers(coeffs, p, q, root):
    # the sum of c_k p^k q^(d - k) is 0 exactly when f(p / q) is; with root,
    # f is given the factor q t - p
    from gmepw.epw import _vanishes_at

    f = Poly(coeffs) * Poly([-p, q]) if root else Poly(coeffs)
    assert _vanishes_at([c.numerator for c in f.coeffs], p, q) == (f(Fraction(p, q)) == 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7).filter(any), st.integers(-6, 6),
       st.integers(-6, 6).filter(bool), st.integers(1, 6), st.sampled_from([3, 4]))
def test_chart_division_in_integers(f, c0, c1, content, exponent):
    # D = prim(c)^e F for an integer F: the chart coordinate
    # c = content (c0 + c1 t) may have content > 1, whose power need not
    # divide D, and dividing by prim(c)^e gives F back exactly; D + 1, which
    # is 1 at the root of c, is not divisible
    from math import gcd

    from gmepw.polynomials import divide_power

    g = gcd(c0, c1)
    prim = Poly([c0 // g, c1 // g])
    d = [c.numerator for c in (prim**exponent * Poly(f)).coeffs]
    assert divide_power(d, content * c0, content * c1, exponent) == [c.numerator for c in Poly(f).coeffs]
    assert divide_power(d, content * c0, 0, exponent) == d  # a constant chart coordinate
    assert divide_power([d[0] + 1, *d[1:]], c0, c1, exponent) is None  # 1 at the root of c
