"""Built-in invariant suite: a condensed, seeded version of the full test
suite that exercises every module on the shipped fixtures.  Used by the
command line; the complete suite lives in the package tests.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .correspondence import (
    dim_report,
    dualize,
    gm_to_lagrangian,
    hyperplane_section_lagrangian,
    lagrangian_to_gm,
)
from .epw import stratum_poly_on_line, y_dual_stratum, y_stratum, z_stratum
from .exterior import MultiVector, l3v5_subspace, v5_subspace, wedge_space, wedge_symplectic_space
from .fibrations import fibration1_fiber, fibration2_fiber
from .fixtures import (
    all_gm_fixtures,
    all_lagrangian_fixtures,
    fivefold,
    fivefold_lagrangian,
    sigma_fixture_lagrangian,
    sigma_form,
)
from .gm import discriminant_on_line, hull_point_sample, membership, validate
from .linalg import Matrix, Subspace, kernel
from .quadrics import (
    dual_quadric_via_pairing,
    gram_on_lagrangian,
    quadric_pair_from_lagrangian,
    standard_doubled_space,
)
from .sampling import random_lagrangian, random_nonzero_vector, rng_from_seed


def run_selftest(verbose: bool = True) -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows."""
    results = []

    def record(name, fn):
        t0 = time.time()
        try:
            detail = fn() or ""
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append((name, ok, f"{detail} ({time.time() - t0:.2f}s)"))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name:40s} {detail}")
        return ok

    def check_fixtures():
        for name, d in all_gm_fixtures().items():
            rep = validate(d)
            if not rep.ok:
                raise AssertionError(f"{name}: {rep.message}")
        return f"{len(all_gm_fixtures())} fixtures valid"

    record("fixtures validate", check_fixtures)

    def check_lagrangian_suite():
        rng = rng_from_seed(2024)
        count = 0
        for m in (2, 3, 4):
            dec = standard_doubled_space(m)
            for _ in range(8):
                a = random_lagrangian(dec.space, rng)
                g = gram_on_lagrangian(dec, a)
                assert g.is_symmetric()
                ker_rows = [a.basis.left_apply(r) for r in kernel(g).basis.data]
                lhs = Subspace.from_rows(2 * m, ker_rows)
                assert lhs == a.intersect(dec.l1) + a.intersect(dec.l2)
                q1, q2 = quadric_pair_from_lagrangian(dec, a)
                d2 = dual_quadric_via_pairing(dec, q1, 1)
                assert d2.span == q2.span and d2.gram == q2.gram
                count += 1
        return f"{count} random Lagrangians"

    record("quadric correspondence", check_lagrangian_suite)

    def check_roundtrips():
        for name, d in all_gm_fixtures().items():
            ld = gm_to_lagrangian(d)
            back = lagrangian_to_gm(ld)
            assert back.n == d.n and back.mu == d.mu and back.q == d.q, name
        for name, ld in all_lagrangian_fixtures().items():
            d = lagrangian_to_gm(ld)
            again = gm_to_lagrangian(d)
            assert again.a == ld.a and again.a1 == ld.a1, name
        return "both directions exact on all fixtures"

    record("gm/lagrangian round trips", check_roundtrips)

    def check_kernel_identity():
        rng = rng_from_seed(5)
        d = fivefold()
        ld = fivefold_lagrangian()
        for _ in range(15):
            v = random_nonzero_vector(rng, 5, 4) + [Fraction(rng.randint(1, 4))]
            corank = d.w_dim - d.q_of(v).rank()
            meet = ld.a.meet_dim(wedge_space(Subspace.from_rows(6, [v]), v5_subspace()))
            assert corank == meet, (v, corank, meet)
        return "15 off-hyperplane kernels match"

    record("quadric kernel = stratum", check_kernel_identity)

    def check_dim_formula():
        for name, ld in all_lagrangian_fixtures().items():
            d = lagrangian_to_gm(ld)
            assert dim_report(ld).predicted_dim_x == d.w_dim - 5, name
        return "dimension formula on all fixtures"

    record("dimension formula", check_dim_formula)

    def check_certificates():
        a = fivefold_lagrangian().a
        cy = stratum_poly_on_line(a, [1, 2, 0, 1, -1, 3], [0, 1, 1, -2, 1, 1], "y", seed=5)
        assert cy.degree == 6, cy.degree
        cz = stratum_poly_on_line(
            a, ([1, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 2], [0, 0, 1, 1, 2, 0]),
            [1, 1, 0, 0, 0, 1], "z", seed=6,
        )
        assert cz.degree == 4, cz.degree
        return "degrees 6 and 4"

    record("line/pencil certificates", check_certificates)

    def check_discriminant():
        d = fivefold()
        rng = rng_from_seed(9)
        for _ in range(3):
            va = random_nonzero_vector(rng, 6, 3)
            vb = random_nonzero_vector(rng, 6, 3)
            if va[5] == 0 and vb[5] == 0:
                continue
            line = discriminant_on_line(d, va, vb)
            assert line.dis_poly is not None and line.dis_poly.degree <= 6
        return "division exact, quotient degree <= 6"

    record("discriminant division", check_discriminant)

    def check_duality():
        rng = rng_from_seed(13)
        ld = fivefold_lagrangian()
        dual = dualize(ld)
        assert dualize(dual).a == ld.a
        for _ in range(10):
            f = random_nonzero_vector(rng, 6, 4)
            v5p = kernel(Matrix([f]))
            assert y_dual_stratum(ld.a, v5p) == y_stratum(dual.a, f)
        for _ in range(10):
            rows = [random_nonzero_vector(rng, 6, 3) for _ in range(3)]
            v3 = Subspace.from_rows(6, rows)
            if v3.dim != 3:
                continue
            assert z_stratum(ld.a, v3) == z_stratum(dual.a, v3.annihilator())
        return "involution and both stratum dualities"

    record("duality suite", check_duality)

    def check_fibrations():
        rng = rng_from_seed(17)
        total = 0
        for ld in (fivefold_lagrangian(), sigma_fixture_lagrangian()):
            for _ in range(10):
                v = random_nonzero_vector(rng, 5, 4) + [Fraction(0)]
                fibration1_fiber(ld, v)
                rows = [random_nonzero_vector(rng, 5, 3) + [Fraction(0)] for _ in range(3)]
                v3 = Subspace.from_rows(6, rows)
                if v3.dim == 3:
                    fibration2_fiber(ld, v3)
                    total += 1
                total += 1
        # engineered exceptional points
        lds = sigma_fixture_lagrangian()
        r = fibration1_fiber(lds, [1, 0, 0, 0, 0, 0])
        assert r.sigma_level == 1
        return f"{total} two-path agreements plus engineered point"

    record("fibration two-path", check_fibrations)

    def check_hyperplane_update():
        rng = rng_from_seed(21)
        a = fivefold_lagrangian().a
        space = wedge_symplectic_space()
        for _ in range(10):
            coords = random_nonzero_vector(rng, 10, 4)
            eta = MultiVector.from_coords(5, 3, coords)
            a2 = hyperplane_section_lagrangian(a, eta)
            from .quadrics import is_lagrangian

            assert is_lagrangian(space, a2)
            assert a.meet_dim(a2) == 9
        return "10 updates, meet dimension 9"

    record("hyperplane updates", check_hyperplane_update)

    def check_hull():
        d = fivefold()
        for seed in range(10):
            w = hull_point_sample(d, seed)
            assert membership(d, w) in ("on_hull_only", "on_x")
        return "10 sampled hull points"

    record("hull sampling", check_hull)

    def check_sigma_form():
        lds = sigma_fixture_lagrangian()
        assert lds.a.contains(sigma_form().coords)
        assert l3v5_subspace().contains(sigma_form().coords)
        return "distinguished form present"

    record("sigma fixture form", check_sigma_form)

    return results


def selftest_exit_code(results) -> int:
    return 0 if all(ok for _, ok, _ in results) else 1
