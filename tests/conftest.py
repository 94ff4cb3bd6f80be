"""Shared engineered fixtures for the derived-example tests."""

from fractions import Fraction

import pytest

from gmepw.correspondence import A1_ZERO, LagrangianData
from gmepw.exterior import monomial_index, monomials
from gmepw.fixtures import _dual_basis_row, graph_row
from gmepw.linalg import Matrix, Subspace

import oracles


@pytest.fixture(scope="session")
def corank2_lagrangian() -> LagrangianData:
    """Graph over the e6-side that contains e6^(e23+e45) and e6^(e24+e35),
    so the quadric in the e6 direction has corank exactly 2."""
    l3v5_mons = list(monomials(5, 3))
    idx6 = monomial_index(6, 3)

    def e6_wedge(pairs):
        out = [Fraction(0)] * 20
        for (i, j), c in pairs:
            out[idx6[tuple(sorted((i, j, 5)))]] += c
        return out

    u1 = e6_wedge([((1, 2), Fraction(1)), ((3, 4), Fraction(1))])
    u2 = e6_wedge([((1, 3), Fraction(1)), ((2, 4), Fraction(1))])
    f_rows = [_dual_basis_row(j) for j in range(10)]
    cs = [oracles.solve(oracles.transpose(Matrix(f_rows)), u) for u in (u1, u2)]
    s0 = Matrix([[Fraction(2 + (i * j) % 5) if i == j else Fraction((i + 2 * j) % 3) for j in range(10)] for i in range(10)])
    s0 = Matrix([[s0.data[i][j] + s0.data[j][i] for j in range(10)] for i in range(10)])
    c = oracles.from_cols(cs)
    ct = oracles.transpose(c)
    t = oracles.sub(s0, oracles.mul(s0, c, oracles.inverse(oracles.mul(ct, s0, c)), ct, s0))
    rows = []
    for j in range(10):
        row = list(f_rows[j])
        for i in range(10):
            if t.data[j][i]:
                row[idx6[l3v5_mons[i]]] += t.data[j][i]
        rows.append(row)
    return LagrangianData(a=Subspace.from_rows(20, rows), a1=A1_ZERO)


@pytest.fixture(scope="session")
def stratum_point_lagrangian() -> LagrangianData:
    """Graph over the hyperplane 3-forms containing e1^(e23 - e56)-type
    elements: the point e1 lies in the first stratum but off the first
    exceptional locus."""
    s = [[Fraction(0)] * 10 for _ in range(10)]
    base = Matrix([[Fraction((i * j + i + j) % 4) for j in range(10)] for i in range(10)])
    for i in range(1, 10):
        for j in range(1, 10):
            if i != 6 and j != 6:
                s[i][j] = base.data[i][j] + base.data[j][i] + (Fraction(2) if i == j else Fraction(0))
    s[0][6] = s[6][0] = Fraction(1)
    sm = Matrix(s)
    assert oracles.is_symmetric(sm)
    rows = [graph_row(i, sm.data[i]) for i in range(10)]
    return LagrangianData(a=Subspace.from_rows(20, rows), a1=A1_ZERO)
