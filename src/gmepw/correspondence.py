"""The bidirectional dictionary between lci Gushel-Mukai data and extended
Lagrangian data, the dimension formula, hyperplane-section updates, and the
duality on Lagrangian subspaces.

The ambient of the extended construction is the 22-dimensional graded space
(degree-3 forms) + (k + L) with symplectic form

    omega((xi, x, x'), (eta, y, y')) = top(xi ^ eta) + y x' - x y',

coordinates 0..19 for the degree-3 monomials, 20 for the k part and 21 for
the L part.  A tag in {"0", "1", "inf"} stores the orbit of the odd summand
under the scaling action; the fixed representative of "1" is the kernel line
appearing for the coefficient-1 special form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .exterior import (
    SymplecticSpace,
    exterior_power_matrix,
    inject,
    l3v5_subspace,
    lambda_p,
    monomial,
    top_pairing,
    v5_positions,
    wedge,
    wedge_symplectic_space,
)
from .gm import NON_LCI, ORDINARY, SPECIAL, GmError, GMData, classify, opposite, split_w
from .linalg import Subspace, clear_denominators, det_int, int_image_and_lifts, over_pivots, vec
from .quadrics import LagrangianDecomposition, is_lagrangian

EXT_DIM = 22
K_COORD = 20
L_COORD = 21

A1_ZERO = "0"
A1_ONE = "1"
A1_INF = "inf"
A1_TAGS = (A1_ZERO, A1_ONE, A1_INF)


class CorrespondenceError(GmError):
    pass


@dataclass(frozen=True)
class LagrangianData:
    """A Lagrangian 10-space of degree-3 forms with the odd orbit tag."""

    a: Subspace
    a1: str = A1_ZERO

    def __post_init__(self):
        if self.a.ambient_dim != 20:
            raise CorrespondenceError("the Lagrangian must live in the 20 coordinates")
        if not is_lagrangian(wedge_symplectic_space(), self.a):
            raise CorrespondenceError("subspace is not Lagrangian for the wedge form")
        if self.a1 not in A1_TAGS:
            raise CorrespondenceError(f"unknown odd tag {self.a1!r}")

    @cached_property
    def dim_report(self) -> DimReport:
        """The module's ``dim_report`` of this data, computed once: the data
        is immutable, and every fiber query reads it."""
        return dim_report(self)


@lru_cache(maxsize=None)
def extended_space() -> SymplecticSpace:
    rows = [(*row, 0, 0) for row in top_pairing(6, 3)]
    rows += [(0,) * L_COORD + (-1,), (0,) * K_COORD + (1, 0)]  # omega(k, L) = -1
    return SymplecticSpace(rows)


@lru_cache(maxsize=None)
def extended_decomposition() -> LagrangianDecomposition:
    """Even/odd graded decomposition: (3-forms on the hyperplane + L) and
    (e6 wedge 2-forms + k)."""
    in_v5, with_e6 = v5_positions(3)
    return LagrangianDecomposition(
        extended_space(),
        Subspace.from_rows(EXT_DIM, [_ext_unit(t) for t in (*in_v5, L_COORD)]),
        Subspace.from_rows(EXT_DIM, [_ext_unit(t) for t in (*with_e6, K_COORD)]),
    )


def _ext_unit(i: int) -> list[int]:
    return [int(j == i) for j in range(EXT_DIM)]


@lru_cache(maxsize=None)
def a1_representative(tag: str) -> Subspace:
    """The odd Lagrangian line for a tag, in the (k, L) plane: L, k or k - L."""
    k, l = {A1_ZERO: (0, 1), A1_INF: (1, 0)}.get(tag, (1, -1))
    return Subspace.from_rows(EXT_DIM, [[0] * K_COORD + [k, l]])


def extended_lagrangian(ld: LagrangianData) -> Subspace:
    """The graded Lagrangian inside the 22 coordinates: the rows of the two
    graded pieces are already a reduced row echelon basis of the sum."""
    a1 = a1_representative(ld.a1)
    return Subspace(EXT_DIM, [r + (0, 0) for r in ld.a.int_rows] + a1.int_rows, ld.a.pivots + a1.pivots)


def gm_to_lagrangian(d: GMData) -> LagrangianData:
    """Extract the Lagrangian data of lci GM data.

    Builds the kernel of the defining map on (3-forms on the hyperplane) + L
    + W and embeds it into the 22 coordinates; the result splits along the
    grading into the 10-dimensional even part and the odd line whose orbit is
    the returned tag.  The even part does not depend on the auxiliary
    direction off the hyperplane, which is checked against a second choice.
    """
    if classify(d) == NON_LCI:
        raise CorrespondenceError("the construction needs lci data")
    a_even, a_odd = _split_graded(_a_hat(d, v0=(0, 0, 0, 0, 0, 1)))
    if _split_graded(_a_hat(d, v0=(1, 0, 0, 0, 0, 1)))[0] != a_even:
        raise CorrespondenceError("even part depends on the auxiliary direction")
    if a_even.dim != 10:
        raise CorrespondenceError("even part has unexpected dimension")
    a20 = Subspace(20, [r[:20] for r in a_even.int_rows], a_even.pivots)
    tag = _odd_tag(a_odd)
    if (tag == A1_ZERO) != (d.ker_mu.dim == 0):
        raise CorrespondenceError("odd tag disagrees with the data type")
    return LagrangianData(a=a20, a1=tag)


def _a_hat(d: GMData, v0: tuple[int, ...]) -> Subspace:
    """Kernel of the defining map, embedded into the 22 coordinates, for an
    integer direction v0 with last coordinate 1.

    In integers mu = M / m, q(v0) = P / D, the functional of ``split_w`` is
    F / s and epsilon = e / e'; each equation is scaled by m e' s D and each
    kernel row by m s, which keeps both spans.
    """
    cols, m = d.int_mu
    f, s = clear_denominators(split_w(d)[2])
    pv0, den = d.int_q_of(v0)
    e, e_den = d.epsilon.numerator, d.epsilon.denominator
    # columns: 10 three-form coords, one L coord, w W-coords; rows: W functionals
    # w -> epsilon * top(xi ^ mu(w)) on the three-forms xi of the hyperplane
    eqs = [[e * s * den * sum(map(mul, t, c)) for t in top_pairing(5, 3)] + [m * e_den * den * fj]
           + [m * e_den * s * x for x in pcol] for c, fj, pcol in zip(cols, f, zip(*pv0))]
    rows = []
    for sol in Subspace.from_rows(11 + d.w_dim, eqs).annihilator().int_rows:
        xi, xprime, wvec = sol[:10], sol[10], sol[11:]
        mu_w = [sum(map(mul, row, wvec)) for row in zip(*cols)]
        three = [m * s * x + s * y for x, y in zip(inject(3, xi), wedge(6, 1, 2, v0, inject(2, mu_w)))]
        rows.append(three + [m * sum(map(mul, f, wvec)), m * s * xprime])
    return Subspace.from_rows(EXT_DIM, rows)


def _split_graded(a_hat: Subspace) -> tuple[Subspace, Subspace]:
    """The even part (k and L coordinates 0) and the odd part (three-form
    coordinates 0).  The rows of an RREF basis with pivot c or later span the
    vectors vanishing on the first c coordinates: the odd part is read off
    a_hat, the even part off the RREF with the k and L columns moved first."""
    moved = Subspace.from_rows(EXT_DIM, [r[K_COORD:] + r[:K_COORD] for r in a_hat.int_rows])
    a_even = Subspace(EXT_DIM, [r[2:] + r[:2] for r, c in zip(moved.int_rows, moved.pivots) if c >= 2],
                      tuple(c - 2 for c in moved.pivots if c >= 2))
    a_odd = Subspace(EXT_DIM, [r for r, c in zip(a_hat.int_rows, a_hat.pivots) if c >= K_COORD],
                     tuple(c for c in a_hat.pivots if c >= K_COORD))
    if a_even.dim + a_odd.dim != a_hat.dim:
        raise CorrespondenceError("kernel does not split along the grading")
    return a_even, a_odd


def _odd_tag(a_odd: Subspace) -> str:
    if a_odd.dim != 1:
        raise CorrespondenceError("odd part must be a line")
    row = a_odd.int_rows[0]
    x, xprime = row[K_COORD], row[L_COORD]
    if x == 0:
        return A1_ZERO
    if xprime == 0:
        return A1_INF
    return A1_ONE


def lagrangian_to_gm(ld: LagrangianData) -> GMData:
    """Build GM data from Lagrangian data with tag 0 or 1.

    The image of the contraction on the Lagrangian is the even target space;
    the quadric family comes from the contraction formula, whose symmetry on
    every direction is asserted.  Tag 1 is the opposite of the tag-0 data:
    it appends the one-dimensional summand with the fixed coefficient-1 form.
    """
    if ld.a1 == A1_INF:
        raise CorrespondenceError("the cone tag does not produce lci data")
    # the contraction image and the lifts of its RREF basis, as integer rows
    # [S R_b | S X_b] over S, the lcm of the pivot values: R_b the basis
    # row, X_b in A
    w0, rows = int_image_and_lifts([lambda_p(3, r) + list(r) for r in ld.a.int_rows], 10)
    rows, big = over_pivots(rows, w0.pivots)
    paired = [[sum(map(mul, t, r[:10])) for t in top_pairing(5, 3)] for r in rows]
    grams = []
    for i in range(6):
        g = _qtilde0_gram(i, rows, paired)
        if any(g[a][b] != g[b][a] for a in range(len(g)) for b in range(a)):
            raise CorrespondenceError("induced quadric family is not symmetric")
        grams.append(g)
    mu = [[r[k] for r in rows] for k in range(10)]  # column b is the basis row R_b
    d = GMData.from_int_rows(w0.dim - 5, (mu, big), [(g, big * big) for g in grams])
    return d if ld.a1 == A1_ZERO else opposite(d)


def _qtilde0_gram(i: int, rows, paired) -> list[list[int]]:
    """Gram of the form -top(contract(v ^ xi1) ^ contract(xi2)) at basis vector i,
    for the lifts xi in the Lagrangian of the RREF basis of the contraction
    image, as integer rows over S^2: -C T R^T with rows contract(e_i ^ xi_a)
    in C and contract(xi_b) in R, each lift and basis row taken S times.
    R is that RREF basis itself, so T R^T is the same on every direction and
    comes in as paired, row b the integer column T (S R_b)."""
    ei = monomial(6, (i,))
    left = [lambda_p(4, wedge(6, 1, 3, ei, r[10:])) for r in rows]
    return [[-sum(map(mul, x, y)) for y in paired] for x in left]


@dataclass(frozen=True)
class DimReport:
    dim_a_cap_l3v5: int
    predicted_dim_x: int
    gm_type: str
    degenerate: bool


def dim_report(ld: LagrangianData) -> DimReport:
    """Expected variety dimension from the Lagrangian data."""
    if ld.a1 == A1_INF:
        raise CorrespondenceError("no dimension formula for the cone tag")
    ell = ld.a.meet_dim(l3v5_subspace())
    base = 5 if ld.a1 == A1_ZERO else 6
    predicted = base - ell
    return DimReport(
        dim_a_cap_l3v5=ell,
        predicted_dim_x=predicted,
        gm_type=ORDINARY if ld.a1 == A1_ZERO else SPECIAL,
        degenerate=predicted < 1,
    )


def dualize(ld: LagrangianData) -> LagrangianData:
    """The orthogonal Lagrangian in the dual coordinates.

    The pairing identifies degree-3 forms on the dual space with functionals
    on degree-3 forms via dual monomials, so the orthogonal is the plain
    annihilator of the coordinate rows.  An involution.
    """
    return LagrangianData(a=ld.a.annihilator(), a1=ld.a1)


def adjoin(a: Subspace, xi) -> Subspace:
    """(A meet the orthogonal of xi) + xi for a 3-form xi (its 20
    coordinates): a Lagrangian through xi, as every 3-form is isotropic
    (xi ^ xi = 0 in odd degree).  A itself when xi lies in A; otherwise it
    meets A in dimension 9."""
    # f = omega(., xi) vanishes on a exactly when xi lies in a = a^omega (a
    # Lagrangian); otherwise f(r_k) != 0 for some row r_k, and the
    # f(r_k) r_i - f(r_i) r_k span its kernel on a, the meet with xi's orthogonal
    eta = clear_denominators(vec(xi))[0]
    f = [sum(map(mul, t, eta)) for t in top_pairing(6, 3)]
    values = [sum(map(mul, f, r)) for r in a.int_rows]
    if not any(values):
        return a
    rk, fk = next((r, v) for r, v in zip(a.int_rows, values) if v)
    meet = [[fk * x - fi * y for x, y in zip(r, rk)] for r, fi in zip(a.int_rows, values)]
    out = Subspace.from_rows(20, meet + [eta])
    if not is_lagrangian(wedge_symplectic_space(), out):
        raise CorrespondenceError("adjoining the form failed to stay Lagrangian")
    return out


def hyperplane_section_lagrangian(a: Subspace, eta0) -> Subspace:
    """Lagrangian of a hyperplane section: ``adjoin`` the chosen non-zero
    3-form on the hyperplane (its 20 coordinates, none on e6)."""
    if not any(eta0):
        raise CorrespondenceError("the update form must be non-zero")
    if not l3v5_subspace().contains(eta0):
        raise CorrespondenceError("the update form must avoid the e6 coordinate")
    return adjoin(a, eta0)


def apply_frame(a: Subspace, frame) -> Subspace:
    """Transport a Lagrangian through a change of basis of the 6-space, given
    as integer rows.  The degree-3 power of c g is c^3 times that of g, so a
    non-zero multiple of the frame has the same image."""
    if len(frame) != 6 or any(len(r) != 6 for r in frame) or det_int(frame) == 0:
        raise CorrespondenceError("frame must be an invertible 6 x 6 matrix")
    m = exterior_power_matrix(frame, 3)
    return Subspace.from_rows(20, [[sum(map(mul, row, r)) for row in m] for r in a.int_rows])
