"""The registry of checks behind ``gmepw selftest`` and the acceptance
criteria: one plain function per identity of the dictionary.

Each check takes its seed and counts as keyword arguments, raises
``AssertionError`` through ``_require`` on a violation (never ``assert``,
so ``python -O`` cannot strip it) and returns a one-line summary.  The
defaults are the small sizes the command line runs;
``tests/test_acceptance.py`` runs every check at the sizes of its criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .correspondence import (
    A1_ONE,
    A1_ZERO,
    LagrangianData,
    adjoin,
    dim_report,
    dualize,
    gm_to_lagrangian,
    hyperplane_section_lagrangian,
    lagrangian_to_gm,
)
from .epw import stratum_poly_on_line, y_dual_stratum, y_stratum, z_stratum
from .exterior import (
    divisor_space,
    inject,
    is_decomposable,
    l3v5_subspace,
    v5_subspace,
    wedge,
    wedge_space,
    wedge_symplectic_space,
)
from .fibrations import fibration1_fiber, fibration2_fiber, sigma1_level, sigma2_level
from .fixtures import (
    all_gm_fixtures,
    all_lagrangian_fixtures,
    fivefold,
    fivefold_lagrangian,
    sigma_fixture,
    sigma_fixture_lagrangian,
    sigma_form,
    threefold,
)
from .gm import ORDINARY, SPECIAL, discriminant_on_line, hull_point_sample, membership, validate
from .linalg import Subspace, _bareiss, unit_vector
from .polynomials import Poly
from .quadrics import (
    QuadricOnSubspace,
    dual_quadric_via_pairing,
    gram_on_lagrangian,
    is_lagrangian,
    lagrangian_from_quadric,
    quadric_pair_from_lagrangian,
    standard_doubled_space,
)
from .sampling import (
    random_invertible,
    random_lagrangian,
    random_nonzero_vector,
    random_vector,
    rng_from_seed,
    standard_lagrangian_pair,
)


def _require(cond, msg) -> None:
    if not cond:
        raise AssertionError(msg)


def fixtures_validate() -> str:
    reports = {name: validate(d) for name, d in all_gm_fixtures().items()}
    for name, rep in reports.items():
        _require(rep.ok, (name, rep.message))
    _require(reports["fivefold"].gm_type == ORDINARY, "fivefold is not ordinary")
    _require(reports["sixfold_special"].gm_type == SPECIAL, "sixfold is not special")
    _require(reports["threefold"].gm_type == ORDINARY, "threefold is not ordinary")
    return f"{len(reports)} fixtures valid"


def _quadric_battery(dec, a) -> QuadricOnSubspace:
    """Kernel of the pairing form = a meet l1 + a meet l2, and the pairing
    dual of the first quadric is the second; returns the first quadric."""
    # the pairing form as a quadric on a, whose constructor checks symmetry
    lhs = QuadricOnSubspace(a.ambient_dim, a, gram_on_lagrangian(dec, a)).kernel_subspace()
    _require(lhs == a.intersect(dec.l1) + a.intersect(dec.l2), "kernel differs from the meets")
    q1, q2 = quadric_pair_from_lagrangian(dec, a)
    d2 = dual_quadric_via_pairing(dec, q1, 1)
    _require(d2.span == q2.span and d2.gram == q2.gram, "pairing dual differs from the second quadric")
    return q1


def quadric_correspondence(
    *, seed="acceptance-1", plan=((2, 3), (3, 3), (4, 3)), wedge_count=1, min_total=0
) -> str:
    """Lagrangians of k^m + dual for each (m, count) of the plan (the two
    summands first), with the graph rebuild, then random Lagrangians of the
    20 coordinates with the wedge form."""
    rng = rng_from_seed(seed)
    total = 0
    for m, count in plan:
        dec = standard_doubled_space(m)
        cases = [dec.l1, dec.l2]
        while len(cases) < count:
            cases.append(random_lagrangian(dec.space, rng))
        for a in cases:
            q1 = _quadric_battery(dec, a)
            # round trip of the explicit graph construction
            small = Subspace.from_rows(m, [r[:m] for r in q1.span.basis_rows()])
            rebuilt = lagrangian_from_quadric(QuadricOnSubspace(m, small, q1.int_gram))
            _require(rebuilt == a, "graph rebuild differs from the Lagrangian")
            total += 1
    space = wedge_symplectic_space()
    dec20 = standard_lagrangian_pair(space)
    for _ in range(wedge_count):
        _quadric_battery(dec20, random_lagrangian(space, rng))
        total += 1
    _require(total >= min_total, f"only {total} Lagrangians")
    dims = sorted({2 * m for m, _ in plan} | ({space.total_dim} if wedge_count else set()))
    return f"quadric correspondence exact on {total} Lagrangians in dims {','.join(map(str, dims))}"


def round_trips() -> str:
    gm_fixtures = all_gm_fixtures()
    for name, d in gm_fixtures.items():
        back = lagrangian_to_gm(gm_to_lagrangian(d))
        _require((back.n, back.mu, back.q, back.epsilon) == (d.n, d.mu, d.q, d.epsilon), name)
    for name, ld in all_lagrangian_fixtures().items():
        again = gm_to_lagrangian(lagrangian_to_gm(ld))
        _require((again.a, again.a1) == (ld.a, ld.a1), name)
    return f"round trips exact on {len(gm_fixtures)} fixtures both ways"


def kernel_and_stratum_identity(*, seed="acceptance-3", points=3) -> str:
    """On every fixture: the corank of the quadric at v off the hyperplane is
    dim A meet (v ^ 2-forms of the hyperplane), and the pointwise
    discriminant det / lambda^(n-1) vanishes iff v is in the first stratum."""
    rng = rng_from_seed(seed)
    fixtures = all_gm_fixtures()
    for name, d in fixtures.items():
        a = gm_to_lagrangian(d).a
        for _ in range(points):
            v = random_nonzero_vector(rng, 5, 4) + [Fraction(rng.randint(1, 4))]
            corank = d.w_dim - _bareiss(d.int_q_of(v)[0])[0]
            meet = a.intersect(wedge_space(Subspace.from_rows(6, [v]), v5_subspace())).dim
            _require(corank == meet, (name, v))
        for _ in range(points):
            v = random_nonzero_vector(rng, 6, 4)
            if v[5] == 0:
                continue
            dis_value = d.q_of(v).det() / (v[5] ** (d.n - 1))
            _require((dis_value == 0) == (y_stratum(a, v) >= 1), (name, v))
    return f"corank = stratum and pointwise discriminant = sextic on {len(fixtures)} fixtures"


def dimension_formula() -> str:
    for name, ld in all_lagrangian_fixtures().items():
        d = lagrangian_to_gm(ld)
        _require(dim_report(ld).predicted_dim_x == d.w_dim - 5, name)
    a = fivefold_lagrangian().a
    _require(dim_report(LagrangianData(a=a, a1=A1_ZERO)).predicted_dim_x == 5, "tag 0")
    _require(dim_report(LagrangianData(a=a, a1=A1_ONE)).predicted_dim_x == 6, "tag 1 shift")
    return "dimension formula incl. the odd-tag shift"


def degree_certificates(*, seed="acceptance-5", lines=1, pencils=1) -> str:
    """Random lines give sextic y-certificates and random pencils quartic
    z-certificates on the fivefold, each with 20 pointwise sample checks; a
    line leaving the hyperplane gives the reduced GM discriminant along it.
    That comes from the GM quadrics, not from A, but shares one kernel with
    the certificate: both take node determinants by ``line_values`` (one
    packed pencil, ``linalg.pencil_eliminations``), then ``interpolate`` and
    ``divide_power``."""
    a = fivefold_lagrangian().a
    rng = rng_from_seed(seed)
    done = 0
    while done < lines:
        base = random_nonzero_vector(rng, 6, 4)
        direction = random_nonzero_vector(rng, 6, 4)
        cert = stratum_poly_on_line(a, base, direction, "y", seed=done)
        _require(not cert.contains_line, "line inside the stratum")
        _require(cert.degree == 6, cert.degree)
        _require(cert.sample_consistency >= 20, cert.sample_consistency)
        if base[5] or direction[5]:
            dis = discriminant_on_line(fivefold(), base, direction).dis_poly
            _require(dis is not None and dis.primitive() == cert.poly, "certificate differs from the GM discriminant")
        done += 1
    done = 0
    while done < pencils:
        rows = [random_nonzero_vector(rng, 6, 3) for _ in range(3)]
        if Subspace.from_rows(6, rows).dim != 3:
            continue
        direction = random_nonzero_vector(rng, 6, 3)
        cert = stratum_poly_on_line(a, tuple(rows), direction, "z", seed=100 + done)
        _require(not cert.contains_line, "pencil inside the stratum")
        _require(cert.degree == 4, cert.degree)
        _require(cert.sample_consistency >= 20, cert.sample_consistency)
        done += 1
    return f"{lines} sextic line and {pencils} quartic pencil certificates"


def discriminant_division(*, seed="acceptance-6", lines=1) -> str:
    """On every fixture the determinant along a line is divisible by
    lambda^(n-1), the quotient has degree <= 6, and it vanishes exactly at
    the parameters in the first stratum."""
    rng = rng_from_seed(seed)
    fixtures = all_gm_fixtures()
    for name, d in fixtures.items():
        a = gm_to_lagrangian(d).a
        done = 0
        while done < lines:
            va = random_nonzero_vector(rng, 6, 4)
            vb = random_nonzero_vector(rng, 6, 4)
            if va[5] == 0 and vb[5] == 0:
                continue
            line = discriminant_on_line(d, va, vb)
            _require(line.plucker_mult >= d.n - 1, name)
            _require(line.dis_poly is not None and line.dis_poly.degree <= 6, name)
            lam = Poly([va[5], vb[5]])
            _require(line.dis_poly * lam ** (d.n - 1) == line.det_poly, name)
            # set-theoretic agreement along the line at 12 parameters
            for k in range(12):
                t = Fraction(k - 6, 1 + (k % 3))
                v = [x + t * y for x, y in zip(va, vb)]
                if all(x == 0 for x in v) or lam(t) == 0:
                    continue
                _require((line.dis_poly(t) == 0) == (y_stratum(a, v) >= 1), (name, t))
            done += 1
    return (
        f"exact hyperplane-power division, quotient degree <= 6, "
        f"{lines} lines x {len(fixtures)} fixtures"
    )


def duality_suite(*, seed="acceptance-7", hyperplanes=10, planes=10) -> str:
    """Dualizing is an involution that swaps the point and hyperplane levels
    and the levels of a 3-space and its annihilator; and on every Lagrangian
    fixture adjoined two forms of a family, the point, 3-space and hyperplane
    levels equal the meet with that family, at 2 or more."""
    rng = rng_from_seed(seed)
    ld = fivefold_lagrangian()
    dual = dualize(ld)
    _require(dualize(dual).a == ld.a, "dualize is not an involution")
    # the fivefold's strata are symmetric under V6 = dual of V6, so anchor
    # the orthogonal itself: that of the hyperplane cube is e6 ^ (2-forms)
    cube_dual = dualize(LagrangianData(a=l3v5_subspace(), a1=A1_ZERO)).a
    e6 = Subspace.from_rows(6, [unit_vector(6, 5)])
    _require(cube_dual == wedge_space(e6, Subspace.full(6)), "orthogonal of the hyperplane cube")
    done = 0
    while done < hyperplanes:
        f = random_nonzero_vector(rng, 6, 4)
        v5p = Subspace.from_rows(6, [f]).annihilator()
        _require(y_dual_stratum(ld.a, v5p) == y_stratum(dual.a, f), f)
        done += 1
    done = 0
    while done < planes:
        rows = [random_nonzero_vector(rng, 6, 3) for _ in range(3)]
        v3 = Subspace.from_rows(6, rows)
        if v3.dim != 3:
            continue
        _require(z_stratum(ld.a, v3.int_rows) == z_stratum(dual.a, v3.annihilator().int_rows), rows)
        done += 1
    for name, lf in all_lagrangian_fixtures().items():
        for level, family, draw in _engineered_families(rng):
            forms = []
            while Subspace.from_rows(20, forms).dim < 2:  # redraw dependent forms
                forms = [draw(), draw()]
            a = adjoin(adjoin(lf.a, forms[0]), forms[1])
            got = level(a)
            _require(got == a.intersect(family).dim >= 2, (name, family, got))
    return f"orthogonal involution, {hyperplanes} hyperplane and {planes} plane dualities"


def _engineered_families(rng):
    """(level function, family span, drawer of forms in the family) for a
    seeded point v, 3-space W and hyperplane V5' = ker f: v ^ b ^ b',
    c ^ x ^ y with x, y in W, and x ^ y ^ z in V5'.  Any two forms of one
    family wedge to 0 (a repeated v, four vectors of W, six of V5'), so A
    adjoined two independent ones meets the family in dimension >= 2.  The
    V5' level is also compared with the point level of f on the dual."""
    full = Subspace.full(6)
    v = random_nonzero_vector(rng, 6, 3)
    w = Subspace.from_rows(6, random_invertible(rng, 6, 3)[:3])
    f = random_nonzero_vector(rng, 6, 3)
    v5p = Subspace.from_rows(6, [f]).annihilator()

    def inside(s):
        coeffs = random_vector(rng, s.dim, 3)
        return [sum(c * r[j] for c, r in zip(coeffs, s.int_rows)) for j in range(6)]

    def cube(x, y, z):
        return wedge(6, 1, 2, x, wedge(6, 1, 1, y, z))

    def dual_level(a):
        got = y_dual_stratum(a, v5p)
        _require(got == y_stratum(dualize(LagrangianData(a=a, a1=A1_ZERO)).a, f), ("dual", f))
        return got

    return (
        (lambda a: y_stratum(a, v), wedge_space(Subspace.from_rows(6, [v]), full),
         lambda: cube(v, inside(full), inside(full))),
        (lambda a: z_stratum(a, w.int_rows), wedge_space(full, w), lambda: cube(inside(full), inside(w), inside(w))),
        (dual_level, wedge_space(v5p, v5p), lambda: cube(inside(v5p), inside(v5p), inside(v5p))),
    )


def fibration_two_path(*, seed="acceptance-8", queries=2) -> str:
    """Both fiber reports agree on `queries` random points and 3-spaces of
    the hyperplane per fixture, and at the engineered exceptional points of
    the distinguished-form fixture."""
    total = 0
    for name, ld in all_lagrangian_fixtures().items():
        rng = rng_from_seed(f"{seed}-{name}")
        done = 0
        while done < queries:
            v = random_nonzero_vector(rng, 5, 4) + [Fraction(0)]
            _require(fibration1_fiber(ld, v).agreement, name)
            done += 1
        done = 0
        while done < queries:
            rows = [random_nonzero_vector(rng, 5, 3) + [Fraction(0)] for _ in range(3)]
            v3 = Subspace.from_rows(6, rows)
            if v3.dim != 3:
                continue
            _require(fibration2_fiber(ld, v3).agreement, name)
            done += 1
        total += 2 * queries
    lds = sigma_fixture_lagrangian()
    r1 = fibration1_fiber(lds, unit_vector(6, 0))
    _require(r1.sigma_level == 1 and r1.agreement, r1)
    _require(sigma1_level(lds, unit_vector(6, 0)) == 1, "sigma1 level at e1")
    v3 = Subspace.from_rows(6, [unit_vector(6, 0), unit_vector(6, 1), unit_vector(6, 3)])
    r2 = fibration2_fiber(lds, v3)
    _require(r2.sigma_level == 1 and r2.agreement, r2)
    _require(sigma2_level(lds, v3) == 1, "sigma2 level at e1, e2, e4")
    return f"{total} two-path agreements plus engineered exceptional points"


def hyperplane_updates(*, seed="acceptance-9", updates=10) -> str:
    rng = rng_from_seed(seed)
    a = fivefold_lagrangian().a
    space = wedge_symplectic_space()
    for _ in range(updates):
        a2 = hyperplane_section_lagrangian(a, inject(3, random_nonzero_vector(rng, 10, 4)))
        _require(is_lagrangian(space, a2), "update is not Lagrangian")
        _require(a.intersect(a2).dim == 9, "update does not meet in dimension 9")
    return f"{updates} hyperplane updates: meet dim 9 and Lagrangian"


def hull_sampling(*, samples=10) -> str:
    """Sampled hull points of every ordinary fixture satisfy the five
    hyperplane quadrics, summed directly from the Gram entries and through
    ``membership``."""
    ordinary = {"fivefold": fivefold(), "threefold": threefold(), "sigma_fourfold": sigma_fixture()}
    for name, d in ordinary.items():
        for seed in range(samples):
            w = hull_point_sample(d, seed)
            for i in range(5):
                g = d.q[i]
                val = sum(
                    (w[x] * g.data[x][y] * w[y] for x in range(d.w_dim) for y in range(d.w_dim)),
                    Fraction(0),
                )
                _require(val == 0, (name, seed, i))
            _require(membership(d, w) in ("on_hull_only", "on_x"), (name, seed))
    return f"{samples} hull samples per ordinary fixture satisfy all hyperplane quadrics"


def sigma_fixture_form() -> str:
    """The distinguished form lies in the Lagrangian and in the cube of the
    hyperplane, and has rank 4: not decomposable, with divisor line e1."""
    omega = sigma_form()
    _require(sigma_fixture_lagrangian().a.contains(omega), "form outside the Lagrangian")
    _require(l3v5_subspace().contains(omega), "form outside the hyperplane cube")
    _require(is_decomposable(omega) is None, "form is decomposable")
    _require(divisor_space(omega) == Subspace.from_rows(6, [unit_vector(6, 0)]), "divisor line is not e1")
    return "distinguished rank-4 form present"


CHECKS = (
    fixtures_validate,
    quadric_correspondence,
    round_trips,
    kernel_and_stratum_identity,
    dimension_formula,
    degree_certificates,
    discriminant_division,
    duality_suite,
    fibration_two_path,
    hyperplane_updates,
    hull_sampling,
    sigma_fixture_form,
)


def run_selftest(out) -> list[bool]:
    """Run every check at its default size, printing one line each to the
    text stream out; returns whether each check passed."""
    results = []
    for check in CHECKS:
        name = check.__name__.replace("_", " ")
        t0 = time.perf_counter()
        try:
            detail = check()
            ok = True
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        print(f"{'PASS' if ok else 'FAIL'}  {name:40s} {detail} ({time.perf_counter() - t0:.2f}s)", file=out)
        results.append(ok)
    return results
