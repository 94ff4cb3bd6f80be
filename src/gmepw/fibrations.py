"""The two quadric fibrations: exceptional-locus levels, and per-fiber
ambient/corank reports computed twice and asserted equal: by isotropic
reduction of the big graded space along an isotropic I of its first summand,
and by closed-form stratum arithmetic.  The reduction path reads the fiber
as the second quadric of the lift A meet I-perp (``quadrics.isotropic_reduce``:
on I-perp the projection to the second summand is the reduced one, so that
quadric is the reduced second quadric) and builds no quotient; it calls none
of the stratum or level functions, nor a rank modulo or meet dimension.

I is written as the chart basis of its family, not reduced to its RREF.
For v in the hyperplane V5, with i the last index where v_i != 0, {v} with
the e_j (j < 5, j != i) is a basis of V5, so I = v ^ Lambda^2 V5 =
Lambda^2(V5/v) has the 6 rows v ^ e_j ^ e_k ({j, k} in {0..4} avoiding i).
For a 3-space W of V5 given by its RREF rows w_a with pivots P (P lies in
{0..4}, and p_P, the product of the pivot entries, is not 0), the two e_c
of {0..4} outside P span a complement U of W in V5, so I = V5 ^ Lambda^2 W
= Lambda^3 W + U (x) Lambda^2 W has the 7 rows w1 ^ w2 ^ w3 and
e_c ^ w_a ^ w_b (``epw.point_chart_rows`` and ``epw.plane_chart_rows`` over
the columns 0..4, the latter charted at P).  A fiber query builds them
once: its sigma level ranks them modulo A against their number, 6 or 7,
and the reduction takes them as I.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import (
    LagrangianData,
    A1_INF,
    extended_decomposition,
    extended_lagrangian,
)
from .epw import level, plane_chart_rows, point_chart_rows, y_stratum, z_stratum
from .gm import GmError
from .linalg import Subspace, _int_row, vec
from .quadrics import _induced_quadric, isotropic_reduce


def _check_in_v5(v) -> list[int]:
    v = vec(v)
    if len(v) != 6 or v[5] != 0:
        raise GmError("the point must lie in the hyperplane")
    if all(x == 0 for x in v):
        raise GmError("zero vector")
    return _int_row(v)


def _check_v3_in_v5(v3: Subspace) -> Subspace:
    if v3.ambient_dim != 6 or v3.dim != 3:
        raise GmError("expected a 3-space of the 6-space")
    if any(row[5] for row in v3.int_rows):
        raise GmError("the 3-space must lie in the hyperplane")
    return v3


def _plane_rows(v3: Subspace) -> list[list[int]]:
    """The 7 chart rows of V5 ^ Lambda^2 W, charted at W's pivots."""
    v3 = _check_v3_in_v5(v3)
    return plane_chart_rows(v3.int_rows, 5, v3.pivots)


def sigma1_level(ld: LagrangianData, v) -> int:
    """dim of the meet of the Lagrangian with v ^ (2-forms on the hyperplane),
    for v in the hyperplane; positive iff v lies in the first exceptional
    locus.  As v ^ Lambda^2 V5 = Lambda^2(V5/v) has dimension C(4, 2) = 6, it
    is 6 minus the rank of its 6 chart rows modulo A (module docstring)."""
    return level(ld.a, point_chart_rows(_check_in_v5(v), 5))


def sigma2_level(ld: LagrangianData, v3: Subspace) -> int:
    """dim of the meet with (hyperplane) ^ (2-forms of the 3-space); positive
    iff the 3-space lies in the second exceptional locus.  As V5 ^ Lambda^2 W
    = Lambda^3 W + (V5/W) (x) Lambda^2 W has dimension 1 + 2 * 3 = 7, it is 7
    minus the rank of its 7 chart rows modulo A (module docstring)."""
    return level(ld.a, _plane_rows(v3))


@dataclass(frozen=True)
class FiberReport:
    ambient_proj_dim: int
    corank: int
    stratum_prediction: int
    sigma_level: int
    expected_dim: int
    agreement: bool


def _fiber_report(ld: LagrangianData, iso20, sigma: int, stratum: int, shift: int) -> FiberReport:
    """Fiber data by isotropic reduction along the I spanned by iso20, rows
    of the 20 three-form coordinates, asserted equal to the closed form: the
    reduced second quadric, read on the lift A meet I-perp, spans
    P^(n + sigma + shift) and has corank stratum - sigma."""
    dec = extended_decomposition()
    iso = [r + [0, 0] for r in iso20]
    q2 = _induced_quadric(dec, isotropic_reduce(dec, extended_lagrangian(ld), iso), 2)
    ambient, corank = q2.span_dim - 1, q2.corank
    n = ld.dim_report.predicted_dim_x
    expected_ambient, expected_corank = n + sigma + shift, stratum - sigma
    if (ambient, corank) != (expected_ambient, expected_corank):
        raise GmError(
            f"fiber disagreement: reduction gives (P^{ambient}, corank {corank}), "
            f"closed form gives (P^{expected_ambient}, corank {expected_corank})"
        )
    return FiberReport(ambient, corank, stratum, sigma, n, True)


def fibration1_fiber(ld: LagrangianData, v) -> FiberReport:
    """Fiber data of the first quadric fibration at a hyperplane point.

    The reduction is taken along v ^ (2-forms on the hyperplane); the closed
    form says the span has projective dimension n - 2 + sigma and the corank
    is the point stratum minus sigma.
    """
    if ld.a1 == A1_INF:
        raise GmError("fibrations need lci data")
    v = _check_in_v5(v)
    iso = point_chart_rows(v, 5)
    return _fiber_report(ld, iso, level(ld.a, iso), y_stratum(ld.a, v), -2)


def fibration2_fiber(ld: LagrangianData, v3: Subspace) -> FiberReport:
    """Fiber data of the second quadric fibration at a 3-space of the hyperplane.

    The reduction is taken along (hyperplane) ^ (2-forms of the 3-space); the
    closed form says the span has projective dimension n + level - 3 and the
    corank is the quartic stratum minus the level.
    """
    if ld.a1 == A1_INF:
        raise GmError("fibrations need lci data")
    iso = _plane_rows(v3)
    return _fiber_report(ld, iso, level(ld.a, iso), z_stratum(ld.a, v3.int_rows), -3)
