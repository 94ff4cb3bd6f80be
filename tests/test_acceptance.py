"""Acceptance criteria: every check of the registry in ``gmepw.selftest`` at
the seed, counts and time budget of its criterion, each printing a PASS line
with its runtime.  Every comparison is exact (zero tolerance); the budgets
are hard ceilings.  The checks live only in the registry; this module holds
the table.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

from gmepw import selftest

# test name -> (criterion number, registry check, keyword arguments, budget in s);
# the two rows without a number are invariants of the shipped fixtures
CRITERIA = {
    "test_c01_lagrangian_quadric_suite": (
        1, "quadric_correspondence",
        {"seed": "acceptance-1", "plan": ((2, 28), (3, 28), (4, 28), (10, 14)),
         "wedge_count": 6, "min_total": 100},
        10,
    ),
    "test_c02_bidirectional_round_trips": (2, "round_trips", {}, 5),
    "test_c03_kernel_and_stratum_identity": (
        3, "kernel_and_stratum_identity", {"seed": "acceptance-3", "points": 50}, 30,
    ),
    "test_c04_dimension_formula": (4, "dimension_formula", {}, 5),
    "test_c05_degree_certificates": (
        5, "degree_certificates", {"seed": "acceptance-5", "lines": 5, "pencils": 5}, 60,
    ),
    "test_c06_discriminant_division": (
        6, "discriminant_division", {"seed": "acceptance-6", "lines": 5}, 60,
    ),
    "test_c07_duality_suite": (
        7, "duality_suite", {"seed": "acceptance-7", "hyperplanes": 50, "planes": 50}, 30,
    ),
    "test_c08_fibration_two_path": (
        8, "fibration_two_path", {"seed": "acceptance-8", "queries": 100}, 60,
    ),
    "test_c09_hyperplane_updates": (
        9, "hyperplane_updates", {"seed": "acceptance-9", "updates": 50}, 10,
    ),
    "test_c10_hull_sampling": (10, "hull_sampling", {"samples": 100}, 30),
    "test_fixtures_all_validate": (None, "fixtures_validate", {}, None),
    "test_sigma_fixture_form": (None, "sigma_fixture_form", {}, None),
}


def _criterion_test(num, check, kwargs, budget):
    def test():
        t0 = time.time()
        label = getattr(selftest, check)(**kwargs)
        if num is None:
            return
        elapsed = time.time() - t0
        print(f"criterion {num:2d} PASS  {label}  ({elapsed:.2f}s, budget {budget}s)")
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"

    return test


# one named test per row, so each criterion keeps its own test id
for _name, _row in CRITERIA.items():
    globals()[_name] = _criterion_test(*_row)


def test_every_check_has_a_criterion():
    rows = sorted(check for _, check, _, _ in CRITERIA.values())
    assert rows == sorted(fn.__name__ for fn in selftest.CHECKS)
