"""Exceptional-locus levels and the two-path fiber reports."""

from fractions import Fraction

import pytest

from gmepw import correspondence, epw, fibrations
from gmepw.correspondence import LagrangianData
from gmepw.epw import y_stratum, z_stratum
from gmepw.exterior import wedge_space
from gmepw.fibrations import (
    FiberReport,
    fibration1_fiber,
    fibration2_fiber,
    sigma1_level,
    sigma2_level,
)
from gmepw.fixtures import (
    all_lagrangian_fixtures,
    fivefold_lagrangian,
    sigma_fixture_lagrangian,
    sigma_form,
    threefold_lagrangian,
)
from gmepw.gm import GmError
from gmepw.linalg import Subspace, unit_vector
from gmepw.sampling import random_nonzero_vector, rng_from_seed


def rand_v5_point(rng):
    return random_nonzero_vector(rng, 5, 4) + [Fraction(0)]


def rand_v5_plane(rng):
    while True:
        rows = [random_nonzero_vector(rng, 5, 3) + [Fraction(0)] for _ in range(3)]
        s = Subspace.from_rows(6, rows)
        if s.dim == 3:
            return s


def test_sigma1_empty_on_fivefold():
    rng = rng_from_seed(61)
    ld = fivefold_lagrangian()
    for _ in range(20):
        assert sigma1_level(ld, rand_v5_point(rng)) == 0


def test_sigma1_engineered_point():
    ld = sigma_fixture_lagrangian()
    assert sigma1_level(ld, unit_vector(6, 0)) >= 1


def test_sigma1_rejects_e6():
    with pytest.raises(GmError):
        sigma1_level(fivefold_lagrangian(), unit_vector(6, 5))


def test_sigma2_engineered_plane():
    ld = sigma_fixture_lagrangian()
    v3 = Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 3)])
    assert sigma2_level(ld, v3) >= 1
    # the distinguished form witnesses membership: it lies in the span space
    v5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])
    assert wedge_space(v5, v3).contains(sigma_form())


def test_sigma2_zero_generic_on_fivefold():
    rng = rng_from_seed(62)
    ld = fivefold_lagrangian()
    for _ in range(10):
        assert sigma2_level(ld, rand_v5_plane(rng)) == 0


def test_sigma2_rejects_plane_off_hyperplane():
    ld = fivefold_lagrangian()
    v3 = Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 5)])
    with pytest.raises(GmError):
        sigma2_level(ld, v3)
    with pytest.raises(GmError):
        fibration2_fiber(ld, v3)


def test_fibration1_generic_fivefold():
    ld = fivefold_lagrangian()
    r = fibration1_fiber(ld, [1, 2, -1, 0, 3, 0])
    assert isinstance(r, FiberReport)
    assert r.expected_dim == 5
    assert r.ambient_proj_dim == 3  # quadric in P^(n-2)
    assert r.corank == 0
    assert r.agreement


def test_fibration1_sigma_bump():
    ld = sigma_fixture_lagrangian()
    r = fibration1_fiber(ld, unit_vector(6, 0))
    assert r.sigma_level == 1
    assert r.ambient_proj_dim == r.expected_dim - 2 + r.sigma_level
    assert r.corank == r.stratum_prediction - r.sigma_level


def test_fibration2_generic_and_sigma():
    ld = fivefold_lagrangian()
    r = fibration2_fiber(
        ld, Subspace.from_rows(6, [[1, 0, 0, 0, 1, 0], [0, 1, 0, 2, 0, 0], [0, 0, 1, -1, 1, 0]])
    )
    assert r.ambient_proj_dim == 2  # P^(n-3) for n = 5
    assert r.corank == 0
    lds = sigma_fixture_lagrangian()
    v3 = Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 3)])
    r2 = fibration2_fiber(lds, v3)
    assert r2.sigma_level == 1
    assert r2.ambient_proj_dim == r2.expected_dim + r2.sigma_level - 3


@pytest.mark.parametrize(
    "fixture_name",
    ["fivefold", "threefold", "sigma"],
)
def test_two_path_agreement_random(fixture_name):
    ld = {
        "fivefold": fivefold_lagrangian(),
        "threefold": threefold_lagrangian(),
        "sigma": sigma_fixture_lagrangian(),
    }[fixture_name]
    rng = rng_from_seed(f"two-path-{fixture_name}")
    for _ in range(25):
        r = fibration1_fiber(ld, rand_v5_point(rng))
        assert r.agreement
        r2 = fibration2_fiber(ld, rand_v5_plane(rng))
        assert r2.agreement


def test_fiber_queries_compute_the_dimension_report_once_per_lagrangian(monkeypatch):
    calls = []
    report = correspondence.dim_report
    monkeypatch.setattr(correspondence, "dim_report", lambda ld: calls.append(ld) or report(ld))
    ld = LagrangianData(a=fivefold_lagrangian().a)
    v3 = Subspace.from_rows(6, [unit_vector(6, i) for i in (0, 1, 3)])
    reports = [fibration1_fiber(ld, unit_vector(6, 0)), fibration1_fiber(ld, [1, 2, -1, 0, 3, 0]),
               fibration2_fiber(ld, v3)]
    assert len(calls) == 1 and calls[0] is ld
    assert all(r.expected_dim == 5 for r in reports)
    assert ld.dim_report == report(ld)
    other = LagrangianData(a=ld.a)  # equal data, its own report
    fibration1_fiber(other, unit_vector(6, 0))
    assert len(calls) == 2 and calls[1] is other


def test_sigma_subsets_of_strata():
    # positive first level forces a positive point stratum, and likewise for
    # the second level and the quartic stratum
    ld = sigma_fixture_lagrangian()
    rng = rng_from_seed(63)
    seen1 = seen2 = 0
    for _ in range(40):
        v = rand_v5_point(rng)
        if sigma1_level(ld, v) >= 1:
            assert y_stratum(ld.a, v) >= 1
            seen1 += 1
        v3 = rand_v5_plane(rng)
        if sigma2_level(ld, v3) >= 1:
            assert z_stratum(ld.a, v3.int_rows) >= 1
            seen2 += 1
    # the engineered witnesses guarantee at least the known points exist
    assert sigma1_level(ld, unit_vector(6, 0)) >= 1
    assert y_stratum(ld.a, unit_vector(6, 0)) >= 1


def test_fiber_corank_one_at_plain_stratum_point(stratum_point_lagrangian):
    # a point of the first stratum that avoids the exceptional locus: the
    # fiber stays in P^(n-2) and picks up corank exactly 1
    ld = stratum_point_lagrangian
    assert y_stratum(ld.a, unit_vector(6, 0)) == 1
    assert sigma1_level(ld, unit_vector(6, 0)) == 0
    r = fibration1_fiber(ld, unit_vector(6, 0))
    assert r.expected_dim == 5
    assert r.ambient_proj_dim == 3
    assert r.corank == 1


def test_sigma1_equals_incidence_level_on_hyperplane():
    # for points of the hyperplane the first-locus level is the incidence
    # dimension with the standard hyperplane: the meet with v ^ Lambda^2 V5
    rng = rng_from_seed(64)
    v5 = Subspace.from_rows(6, [unit_vector(6, i) for i in range(5)])
    for ld in (sigma_fixture_lagrangian(), threefold_lagrangian()):
        for _ in range(15):
            v = rand_v5_point(rng)
            assert sigma1_level(ld, v) == ld.a.intersect(wedge_space(Subspace.from_rows(6, [v]), v5)).dim


@pytest.mark.parametrize(
    "name, expected",
    [
        ("fivefold", ((3, 0, 0, 0, 5), (2, 0, 0, 0, 5))),
        ("sigma_fourfold", ((3, 0, 1, 1, 4), (2, 0, 1, 1, 4))),
    ],
)
def test_reduction_path_meets_nothing_in_the_22_coordinates(monkeypatch, name, expected):
    # isotropic_reduce and _induced_quadric work on integer rows: no
    # Subspace.intersect (two annihilators and a Gauss-Jordan) runs inside
    # them, and the reports are the ones the Fraction path gave
    counts = {"depth": 0, "entered": 0, "meets": 0}
    intersect = Subspace.intersect

    def counted(self, other):
        counts["meets"] += counts["depth"] > 0
        return intersect(self, other)

    def inside(fn):
        def wrapped(*args):
            counts["depth"] += 1
            counts["entered"] += 1
            try:
                return fn(*args)
            finally:
                counts["depth"] -= 1
        return wrapped

    monkeypatch.setattr(Subspace, "intersect", counted)
    for fn in (fibrations.isotropic_reduce, fibrations._induced_quadric):
        monkeypatch.setattr(fibrations, fn.__name__, inside(fn))
    ld = all_lagrangian_fixtures()[name]
    v3 = Subspace.from_rows(6, [unit_vector(6, i) for i in (0, 1, 3)])
    reports = (fibration1_fiber(ld, unit_vector(6, 0)), fibration2_fiber(ld, v3))
    assert counts["entered"] == 4 and counts["meets"] == 0
    for report, (ambient, corank, stratum, level, dim) in zip(reports, expected):
        assert report == FiberReport(ambient, corank, stratum, level, dim, True)


def test_the_reduction_path_calls_no_closed_form_primitive(monkeypatch):
    # the two paths stay separate: while isotropic_reduce or _induced_quadric
    # runs, every stratum and level function, Subspace.rank_modulo and
    # Subspace.meet_dim raise; outside them the closed form calls them
    counts = {"depth": 0, "reductions": 0, "closed": 0}

    def guarded(fn):
        def wrapped(*args, **kwargs):
            if counts["depth"]:
                raise AssertionError(f"{fn.__qualname__} called on the reduction path")
            counts["closed"] += 1
            return fn(*args, **kwargs)
        return wrapped

    def inside(fn):
        def wrapped(*args):
            counts["depth"] += 1
            counts["reductions"] += 1
            try:
                return fn(*args)
            finally:
                counts["depth"] -= 1
        return wrapped

    for name in ("y_stratum", "z_stratum", "level"):
        for module in (epw, fibrations):
            monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    for name in ("sigma1_level", "sigma2_level"):
        monkeypatch.setattr(fibrations, name, guarded(getattr(fibrations, name)))
    for name in ("rank_modulo", "meet_dim"):
        monkeypatch.setattr(Subspace, name, guarded(getattr(Subspace, name)))
    for fn in (fibrations.isotropic_reduce, fibrations._induced_quadric):
        monkeypatch.setattr(fibrations, fn.__name__, inside(fn))
    rng = rng_from_seed("separate-paths")
    queries = 0
    for ld in all_lagrangian_fixtures().values():
        points = [unit_vector(6, 0)] + [rand_v5_point(rng) for _ in range(3)]
        planes = [Subspace.from_rows(6, [unit_vector(6, i) for i in (0, 1, 3)])]
        planes += [rand_v5_plane(rng) for _ in range(3)]
        reports = [fibration1_fiber(ld, v) for v in points] + [fibration2_fiber(ld, v3) for v3 in planes]
        assert all(r.agreement for r in reports)
        queries += len(reports)
    assert queries == 32 and counts["reductions"] == 2 * queries and counts["closed"] >= 2 * queries


def test_warm_fibers_run_two_eliminations_and_levels_rank_the_chart_rows(monkeypatch):
    # I is handed over as its chart rows, never reduced: once a Lagrangian's
    # caches are built, a fiber query runs one Gauss-Jordan in
    # isotropic_reduce and one in _induced_quadric, and the sigma levels
    # rank 6 and 7 chart rows modulo A, next to the 10 of the point and
    # quartic strata
    from gmepw import linalg, quadrics

    counts = {"eliminations": 0}
    sizes = []
    gauss_jordan, rank_modulo = linalg._gauss_jordan, Subspace.rank_modulo

    def counted(*args):
        counts["eliminations"] += 1
        return gauss_jordan(*args)

    def ranked(self, rows):
        rows = list(rows)
        sizes.append(len(rows))
        return rank_modulo(self, rows)

    rng = rng_from_seed("warm-fibers")
    queries = 0
    for ld in all_lagrangian_fixtures().values():
        points = [unit_vector(6, 0)] + [rand_v5_point(rng) for _ in range(3)]
        planes = [Subspace.from_rows(6, [unit_vector(6, i) for i in (0, 1, 3)])]
        planes += [rand_v5_plane(rng) for _ in range(3)]
        fibration1_fiber(ld, points[0]), fibration2_fiber(ld, planes[0])  # build the caches
        with monkeypatch.context() as patched:
            for module in (linalg, quadrics):
                patched.setattr(module, "_gauss_jordan", counted)
            patched.setattr(Subspace, "rank_modulo", ranked)
            for query, level, x, rows in [(fibration1_fiber, sigma1_level, v, 6) for v in points] + \
                                         [(fibration2_fiber, sigma2_level, v3, 7) for v3 in planes]:
                counts["eliminations"], sizes[:] = 0, []
                report = query(ld, x)
                assert report.agreement
                assert counts["eliminations"] == 2 and sizes == [rows, 10]
                sizes[:] = []
                assert level(ld, x) == report.sigma_level
                assert counts["eliminations"] == 2 and sizes == [rows]
                queries += 1
    assert queries == 32
