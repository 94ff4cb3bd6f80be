"""Named mutations of the library, each of which must make at least one
check of the ``gmepw selftest`` registry fail (mutation testing: DeMillo,
Lipton and Sayward, "Hints on test data selection", 1978).

A mutation replaces one library function by a wrong variant in every
``gmepw`` module that holds it by name, and the fixtures' caches are cleared
around each run, so the fixtures are rebuilt under the mutant and none of
them outlives it.  Each entry also names the checks that must be among the
failures.  Capping ``y_stratum``, ``z_stratum`` or ``y_dual_stratum`` at 1
is caught by the duality suite, which draws a point, a 3-space and a
hyperplane of level 2 or more on every Lagrangian fixture adjoined two forms of
the family.  Raising every level of a certificate's sample check by one is
caught by the degree certificates, whose roots then disagree with it.
Dropping the chart factor, by charting every line at the constant
coordinate 1, leaves c^e in the certificate, whose degree is then 10: the
degree certificates catch it.  ``divide_power`` itself is not mutated:
``gm`` holds it under the same name, and its division chain in
``discriminant_on_line`` would not end under a variant that never returns
None at exponent 0.
"""

import io
import sys

import pytest

from gmepw import correspondence, epw, fibrations, fixtures, gm, selftest
from gmepw.selftest import CHECKS, run_selftest
from test_acceptance import CRITERIA


def _shift_chart(result):
    """The chart coordinate c0 + c1 t off by one in its constant term."""
    gens, (c0, c1) = result
    return gens, (c0 + 1, c1)


def _constant_chart(result):
    """The chart coordinate replaced by the constant 1."""
    gens, _ = result
    return gens, (1, 0)


def _negate_one_entry(rows):
    """The last non-zero entry of the last row with its sign flipped."""
    row = rows[-1]
    k = max(k for k, x in enumerate(row) if x)
    row[k] = -row[k]
    return rows


# name -> (module, function, mutant built from the original, checks that fail)
MUTATIONS = {
    "dualize-identity": (correspondence, "dualize", lambda f: lambda ld: ld, {"duality_suite"}),
    "sigma1-zero": (fibrations, "sigma1_level", lambda f: lambda ld, v: 0, {"fibration_two_path"}),
    "sigma1-plus-one": (fibrations, "sigma1_level", lambda f: lambda ld, v: f(ld, v) + 1,
                        {"fibration_two_path"}),
    "sigma2-zero": (fibrations, "sigma2_level", lambda f: lambda ld, v3: 0, {"fibration_two_path"}),
    "opposite-identity": (gm, "opposite", lambda f: lambda d: d, {"fixtures_validate"}),
    "hyperplane-update-no-op": (correspondence, "hyperplane_section_lagrangian", lambda f: lambda a, eta: a,
                                {"hyperplane_updates"}),
    "chart-factor-off-by-one": (epw, "_lagrangian_family_gens", lambda f: lambda *args: _shift_chart(f(*args)),
                                {"degree_certificates"}),
    "chart-factor-dropped": (epw, "_lagrangian_family_gens", lambda f: lambda *args: _constant_chart(f(*args)),
                             {"degree_certificates"}),
    "chart-row-sign-mangled": (epw, "point_chart_rows", lambda f: lambda *args: _negate_one_entry(f(*args)),
                               {"degree_certificates"}),
    "y-stratum-capped": (epw, "y_stratum", lambda f: lambda a, v: min(f(a, v), 1), {"duality_suite"}),
    "z-stratum-capped": (epw, "z_stratum", lambda f: lambda a, rows: min(f(a, rows), 1), {"duality_suite"}),
    "y-dual-stratum-capped": (epw, "y_dual_stratum", lambda f: lambda a, v5: min(f(a, v5), 1), {"duality_suite"}),
    "sample-levels-plus-one": (epw, "_sample_levels", lambda f: lambda *args: [lvl + 1 for lvl in f(*args)],
                               {"degree_certificates"}),
}


@pytest.fixture
def fresh_fixtures():
    def clear():
        for fn in vars(fixtures).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    clear()
    yield
    clear()


def failed_checks() -> set[str]:
    return {check.__name__ for check, ok in zip(CHECKS, run_selftest(io.StringIO())) if not ok}


def test_the_registry_passes_unmutated(fresh_fixtures):
    assert failed_checks() == set()


def apply(name, monkeypatch) -> set[str]:
    """Patch the mutant in; returns the checks that must fail under it."""
    module, attr, mutate, killers = MUTATIONS[name]
    original = getattr(module, attr)
    mutant = mutate(original)
    holders = [m for n, m in sys.modules.items() if n.startswith("gmepw") and getattr(m, attr, None) is original]
    assert module in holders
    for holder in holders:
        monkeypatch.setattr(holder, attr, mutant)
    return killers


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_mutation_fails_a_registry_check(name, monkeypatch, fresh_fixtures):
    killers = apply(name, monkeypatch)
    failed = failed_checks()
    assert killers <= failed, (name, failed)


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_mutation_fails_its_checks_at_acceptance_sizes(name, monkeypatch, fresh_fixtures):
    sizes = {check: kwargs for _, check, kwargs, _ in CRITERIA.values()}
    for check in apply(name, monkeypatch):
        with pytest.raises((AssertionError, ValueError)):
            getattr(selftest, check)(**sizes[check])
