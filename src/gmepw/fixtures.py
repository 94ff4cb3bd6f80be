"""Built-in fixtures: the ordinary fivefold, its special opposite, an
ordinary threefold obtained by two hyperplane updates, and the fourfold
whose Lagrangian contains a fixed rank-4 form (used to hit the exceptional
loci of both fibrations).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .correspondence import (
    A1_ONE,
    A1_ZERO,
    LagrangianData,
    gm_to_lagrangian,
    hyperplane_section_lagrangian,
    lagrangian_to_gm,
)
from .exterior import inject, monomial, top_pairing, v5_positions
from .gm import GMData, opposite, plucker_grams
from .linalg import Subspace, unit_vector, vec_add


@lru_cache(maxsize=None)
def fivefold() -> GMData:
    """Ordinary fivefold data: the full 2-form space with the identity form
    in the e6 direction."""
    identity = Subspace.full(10).int_rows  # the rows and columns of mu, and q(e6)
    grams = [(g, 1) for g in plucker_grams(identity)]
    return GMData(5, (identity, 1), grams + [(identity, 1)])


@lru_cache(maxsize=None)
def fivefold_lagrangian() -> LagrangianData:
    return gm_to_lagrangian(fivefold())


@lru_cache(maxsize=None)
def sixfold_special() -> GMData:
    return opposite(fivefold())


@lru_cache(maxsize=None)
def threefold_lagrangian() -> LagrangianData:
    """Two hyperplane-section updates of the fivefold Lagrangian."""
    a = fivefold_lagrangian().a
    eta1 = vec_add(monomial(6, (0, 1, 2)), monomial(6, (2, 3, 4)))
    a = hyperplane_section_lagrangian(a, eta1)
    eta2 = [x + 2 * y for x, y in zip(monomial(6, (0, 1, 3)), monomial(6, (1, 2, 4)))]
    a = hyperplane_section_lagrangian(a, eta2)
    return LagrangianData(a=a, a1=A1_ZERO)


@lru_cache(maxsize=None)
def threefold() -> GMData:
    return lagrangian_to_gm(threefold_lagrangian())


def sigma_form() -> list[int]:
    """The rank-4 form e123 + e145 with kernel direction e1."""
    return vec_add(monomial(6, (0, 1, 2)), monomial(6, (0, 3, 4)))


def _dual_basis_row(i: int) -> list[Fraction]:
    """The e6-block vector pairing to 1 with the i-th 3-monomial of the
    hyperplane and to 0 with the others: that monomial's row of the wedge
    form, which is +-1 at the complementary monomial."""
    return list(top_pairing(6, 3)[v5_positions(3)[0][i]])


def graph_row(i: int, coeffs) -> list[Fraction]:
    """Row of the graph Lagrangian of a symmetric matrix over the splitting
    (3-forms on the hyperplane) + (e6 wedge 2-forms)."""
    row = inject(3, unit_vector(10, i))
    for j, c in enumerate(coeffs):
        if c != 0:
            dual = _dual_basis_row(j)
            row = [a + c * b for a, b in zip(row, dual)]
    return row


@lru_cache(maxsize=None)
def sigma_fixture_lagrangian() -> LagrangianData:
    """A Lagrangian containing the rank-4 form, as a graph over the 3-forms
    of the hyperplane that kills it.

    The graph of a symmetric matrix s over the decomposition (3-forms on the
    hyperplane) + (e6 wedge 2-forms) is Lagrangian; choosing s with the form
    in its kernel puts the form inside the Lagrangian, which makes the point
    e1 land in the first exceptional locus and suitable 3-spaces in the
    second.
    """
    omega = sigma_form()
    # a fixed symmetric integer seed matrix
    s0 = [
        [2, 1, 0, 0, 1, 0, 0, 0, 0, 1],
        [1, 3, 1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 4, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 2, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 3, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 2, 1, 0],
        [0, 0, 1, 0, 0, 0, 0, 1, 1, 0],
        [1, 0, 0, 0, 0, 1, 0, 0, 0, 5],
    ]
    # project so the distinguished form spans the kernel direction
    w = [omega[t] for t in v5_positions(3)[0]]
    s0w = [sum(map(mul, row, w)) for row in s0]
    scale = sum(map(mul, s0w, w))
    s = [[x - Fraction(a * b, scale) for b, x in zip(s0w, row)] for a, row in zip(s0w, s0)]
    rows = [graph_row(i, s[i]) for i in range(10)]
    return LagrangianData(a=Subspace.from_rows(20, rows), a1=A1_ZERO)


@lru_cache(maxsize=None)
def sigma_fixture() -> GMData:
    return lagrangian_to_gm(sigma_fixture_lagrangian())


def all_gm_fixtures() -> dict[str, GMData]:
    return {
        "fivefold": fivefold(),
        "sixfold_special": sixfold_special(),
        "threefold": threefold(),
        "sigma_fourfold": sigma_fixture(),
    }


def all_lagrangian_fixtures() -> dict[str, LagrangianData]:
    return {
        "fivefold": fivefold_lagrangian(),
        "sixfold_special": LagrangianData(a=fivefold_lagrangian().a, a1=A1_ONE),
        "threefold": threefold_lagrangian(),
        "sigma_fourfold": sigma_fixture_lagrangian(),
    }
