"""The two quadric fibrations: exceptional-locus levels, and per-fiber
ambient/corank reports computed twice and asserted equal: by isotropic
reduction of the big graded space along an isotropic I of its first summand,
and by closed-form stratum arithmetic.  The reduction path reads the fiber
as the second quadric of the lift A meet I-perp (``quadrics.isotropic_reduce``:
on I-perp the projection to the second summand is the reduced one, so that
quadric is the reduced second quadric) and builds no quotient; it calls none
of the stratum or level functions, nor a rank modulo or meet dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import (
    LagrangianData,
    A1_INF,
    extended_decomposition,
    extended_lagrangian,
)
from .epw import y_hat_member, y_stratum, z_stratum
from .exterior import v5_subspace, wedge_gens, wedge_space
from .gm import GmError
from .linalg import Subspace, vec
from .quadrics import _induced_quadric, isotropic_reduce


def _check_in_v5(v) -> list:
    v = vec(v)
    if len(v) != 6 or v[5] != 0:
        raise GmError("the point must lie in the hyperplane")
    if all(x == 0 for x in v):
        raise GmError("zero vector")
    return v


def _check_v3_in_v5(v3: Subspace) -> Subspace:
    if v3.ambient_dim != 6 or v3.dim != 3:
        raise GmError("expected a 3-space of the 6-space")
    if any(row[5] for row in v3.int_rows):
        raise GmError("the 3-space must lie in the hyperplane")
    return v3


def sigma1_level(ld: LagrangianData, v) -> int:
    """dim of the meet of the Lagrangian with v ^ (2-forms on the hyperplane),
    for v in the hyperplane; positive iff v lies in the first exceptional locus."""
    return y_hat_member(ld.a, _check_in_v5(v), v5_subspace())


def sigma2_level(ld: LagrangianData, v3: Subspace) -> int:
    """dim of the meet with (hyperplane) ^ (2-forms of the 3-space); positive
    iff the 3-space lies in the second exceptional locus.  As V5 ^ Lambda^2 W
    = Lambda^3 W + (V5/W) (x) Lambda^2 W has dimension 1 + 2 * 3 = 7, it is 7
    minus the rank of the raw generators modulo A."""
    v3 = _check_v3_in_v5(v3)
    return 7 - ld.a.rank_modulo(wedge_gens(v5_subspace().int_rows, v3.int_rows))


@dataclass(frozen=True)
class FiberReport:
    ambient_proj_dim: int
    corank: int
    stratum_prediction: int
    sigma_level: int
    expected_dim: int
    agreement: bool


def _fiber_report(
    ld: LagrangianData, iso20: Subspace, level: int, stratum: int, shift: int
) -> FiberReport:
    """Fiber data by isotropic reduction along iso20, a subspace of the 20
    three-form coordinates, asserted equal to the closed form: the reduced
    second quadric, read on the lift A meet I-perp, spans
    P^(n + level + shift) and has corank stratum - level."""
    iso = Subspace(22, [r + (0, 0) for r in iso20.int_rows], iso20.pivots)  # padding keeps the RREF
    dec = extended_decomposition()
    q2 = _induced_quadric(dec, isotropic_reduce(dec, extended_lagrangian(ld), iso), 2)
    ambient, corank = q2.span_dim - 1, q2.corank
    n = ld.dim_report.predicted_dim_x
    expected_ambient, expected_corank = n + level + shift, stratum - level
    if (ambient, corank) != (expected_ambient, expected_corank):
        raise GmError(
            f"fiber disagreement: reduction gives (P^{ambient}, corank {corank}), "
            f"closed form gives (P^{expected_ambient}, corank {expected_corank})"
        )
    return FiberReport(ambient, corank, stratum, level, n, True)


def fibration1_fiber(ld: LagrangianData, v) -> FiberReport:
    """Fiber data of the first quadric fibration at a hyperplane point.

    The reduction is taken along v ^ (2-forms on the hyperplane); the closed
    form says the span has projective dimension n - 2 + sigma and the corank
    is the point stratum minus sigma.
    """
    if ld.a1 == A1_INF:
        raise GmError("fibrations need lci data")
    v = _check_in_v5(v)
    iso = wedge_space(Subspace.from_rows(6, [v]), v5_subspace())
    return _fiber_report(ld, iso, sigma1_level(ld, v), y_stratum(ld.a, v), -2)


def fibration2_fiber(ld: LagrangianData, v3: Subspace) -> FiberReport:
    """Fiber data of the second quadric fibration at a 3-space of the hyperplane.

    The reduction is taken along (hyperplane) ^ (2-forms of the 3-space); the
    closed form says the span has projective dimension n + level - 3 and the
    corank is the quartic stratum minus the level.
    """
    if ld.a1 == A1_INF:
        raise GmError("fibrations need lci data")
    v3 = _check_v3_in_v5(v3)
    iso = wedge_space(v5_subspace(), v3)
    return _fiber_report(ld, iso, sigma2_level(ld, v3), z_stratum(ld.a, v3.int_rows), -3)
