"""EPW stratifications: point and hyperplane strata, the incidence condition,
the quartic strata on 3-spaces, and degree certificates along lines and
pencils.

Membership in a stratum is a rank statement about the meet of the Lagrangian
with a moving Lagrangian family.  Along a line (or pencil) the family has a
basis in one fixed coordinate chart, so the membership locus is cut out by
one determinant D(t) of the pairing against that basis.  D(t) is the stratum
polynomial times a power of the chart coordinate (v_i^4 for lines, p_R^3 for
pencils), which is divided out exactly; the quotient is certified against
pointwise membership.

At a point the family is 10-dimensional.  In a basis f1..f6 of the 6-space
with v = f1, v ^ (2-forms) has the basis f1 ^ fj ^ fk (1 < j < k): it is
Lambda^2(V6/v), of dimension C(5, 2) = 10.  With W = span(f1, f2, f3),
(6-space) ^ (2-forms of W) has the basis f1 ^ f2 ^ f3 and fi ^ fa ^ fb
(i > 3, a < b <= 3): it is Lambda^3 W + (V6/W) (x) Lambda^2 W, of dimension
1 + 3 * 3 = 10.  So the meet with A has dimension 10 minus the rank modulo A
of a basis of the family; rank 10 proves the meet is 0 exactly.

The pointwise levels read the basis's chart off the point.  For i the last
index with v_i != 0, f1 = v and the e_j (j != i) give the 10 forms
v ^ e_j ^ e_k, {j, k} avoiding i.  For R the last 3-set with Plücker
coordinate p_R != 0 and C its complement, f1..f3 = w1..w3 and the e_c
(c in C) give w1 ^ w2 ^ w3 and the 9 forms e_c ^ w_a ^ w_b.

The same charts serve the hyperplane V5 = span(e1..e5), the columns
0..4.  For v in V5, i < 5, and {v} with the e_j (j < 5, j != i) spans V5,
as v = v_i e_i + (the others) with v_i != 0; so the 6 forms v ^ e_j ^ e_k
with {j, k} in {0..4} avoiding i are a basis of v ^ Lambda^2 V5 =
Lambda^2(V5/v), of dimension C(4, 2) = 6.  For W in V5 every p_R with
5 in R is 0, so R lies in {0..4}, and the 5 x 5 minor of w1, w2, w3, e_c
(c in {0..4} outside R) is +-p_R != 0: V5 = W + U for U the span of those
two e_c, and V5 ^ Lambda^2 W = Lambda^3 W + U (x) Lambda^2 W, two of the
summands Lambda^k W (x) Lambda^(3-k) U of Lambda^3 V5, has the basis
w1 ^ w2 ^ w3 and the 2 * 3 forms e_c ^ w_a ^ w_b: dimension 7.  Any R
with p_R != 0 is a chart.  For the RREF rows of W with pivots P, p_P is
the product of the pivot entries, so P is one; there w_a is its pivot
entry at e_(P_a) plus free entries, and in V5 (one free column n besides
c) each e_c ^ w_a ^ w_b for c free has at most 3 non-zero entries, at
e_c ^ e_(P_a) ^ e_(P_b), e_c ^ e_(P_a) ^ e_n and e_c ^ e_n ^ e_(P_b).

Every level here is ``level``: the number of rows of a basis of the family
minus their ``Subspace.rank_modulo`` A, over plain 20-coordinate rows (the
certificate's sample levels take that rank over a pencil of such rows,
below).  The
bases are the chart rows of ``point_chart_rows`` and ``plane_chart_rows``
over the columns 0..5 (10 rows) or 0..4 (6 and 7), and for
``y_dual_stratum`` the 10 triple wedges of a basis of the hyperplane.  The
chart rows are written straight from the one sign table of ``exterior``:
the coordinates of v ^ e_j ^ e_k are +-v_m at e_m ^ e_jk, and those of
e_c ^ w_a ^ w_b are +-(w_a ^ w_b)_jk at e_c ^ e_jk, so no generator is
wedged on its own.

A certificate takes the chart rows at t = 0 and t = 1 in the first chart
along its whole line, and a pairing determinant of them against the rows
of A.  The sample check takes one level per sample point t = p / q in that
point's own last chart, by a rank modulo A, all of them from one pencil.
Let i (R) be the line's last chart: the last index (3-set) whose
coordinate c = v_i (p_R) is not identically 0 along the line (pencil).
Every later coordinate is identically 0 there, so wherever c(p / q) != 0,
i (R) is the last chart of the point q v(p / q) (of the 3-space w1, w2,
q w3(p / q)) itself.  The chart rows are linear in v, and linear in w3 but
for the rows e_c ^ w1 ^ w2, which do not move; so with G0 the rows at
t = 0 and G1 those at t = 1 less G0 (``_lagrangian_family_gens`` charted
at the last chart), q G0 + p G1 are the rows of ``point_chart_rows``
(``plane_chart_rows``) at that point, the constant rows times q != 0,
which leaves their span.  The level there is the same number in the same
chart as ``y_stratum`` (``z_stratum``) takes, and
``Subspace.pencil_ranks_modulo`` ranks all of them from the remainders of
G0 and G1, built once, at one packed width.  At a sample with
c(p / q) = 0, if any, the point's own last chart comes earlier, and
``y_stratum`` (``z_stratum``) takes its level.  The check shares the
chart-row functions with the certificate but not the chart (last against
first) or the method (remainders modulo A against the pairing
determinant).  The independent path is the GM side: a
y-certificate on a line leaving V5 equals the reduced discriminant of the
GM quadric family along it (``gm.discriminant_on_line``), as the registry
checks.

A certificate is integer from the generator rows to its last step.  The
chart determinant D(t) = c(t)^e F(t) (``_membership_poly``) comes from
integer determinants at the nodes 0..k and ``interpolate``, so D and the
chart coordinate c = c0 + c1 t lie in Z[t], while F lies in Q[t].  By Gauss's
lemma the content of a product of integer polynomials is the product of the
contents, so the primitive parts multiply: prim(D) = +-prim(c)^e prim(F).
As D = cont(D) prim(D), prim(c)^e divides D in Z[t], and e synthetic
divisions by prim(c) (``polynomials.divide_power``) give
D / prim(c)^e = +-cont(D) prim(F).  Its primitive part with a positive
leading coefficient is that of F = D / c^e, the certificate.  A constant c
(c1 = 0) has prim(c) = 1 and leaves D.  The sample parameters t = p / q are
reduced integer pairs, and f(p / q) = 0 is read off q^d f(p / q), an
integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul

from .exterior import _wedge_table, monomials, top_pairing, wedge
from .gm import GmError
from .linalg import Subspace, _int_row, clear_denominators, vec
from .polynomials import Poly, divide_power, interpolate, line_values
from .sampling import rng_from_seed


_SAMPLES = 20  # pointwise checks per certificate


def level(a: Subspace, rows) -> int:
    """dim of the meet of A with the span of rows that are a basis of a
    family: their number minus their rank modulo A."""
    return len(rows) - a.rank_modulo(rows)


def point_chart_rows(v: list[int], cols: int, i=None) -> list[list[int]]:
    """The rows v ^ e_j ^ e_k over the pairs {j, k} of the columns 0..cols-1
    avoiding the chart i (by default the last index with v_i != 0): a basis
    of v ^ Lambda^2 of the span of e_0..e_(cols-1), for an integer v in it
    with v_i != 0 (module docstring)."""
    if i is None:
        i = max(k for k, x in enumerate(v) if x)
    rows = {jk: [0] * 20 for jk, pair in enumerate(monomials(6, 2)) if i not in pair and pair[1] < cols}
    for vm, entries in zip(v, _wedge_table(6, 1, 2)):
        if vm:
            for jk, sign, t in entries:
                if jk in rows:
                    rows[jk][t] = sign * vm
    return list(rows.values())


def plane_chart_rows(w, cols: int, chart=None) -> list[list[int]]:
    """w1 ^ w2 ^ w3 and the rows e_c ^ w_a ^ w_b over the columns c < cols
    outside the chart R, a 3-set with p_R != 0 (by default the last one): a
    basis of (the span of e_0..e_(cols-1)) ^ Lambda^2 W for 3 integer rows
    spanning a W inside it (module docstring).  Dependent rows, whose cube
    is 0, are rejected."""
    pairs = [wedge(6, 1, 1, x, y) for x, y in combinations(w, 2)]
    cube = wedge(6, 1, 2, w[0], pairs[2])  # the Plücker coordinates p_S
    if not any(cube):
        raise GmError("the 3 vectors are dependent: they span less than a 3-space")
    if chart is None:
        chart = monomials(6, 3)[max(r for r, p in enumerate(cube) if p)]
    table = _wedge_table(6, 1, 2)
    rows = [cube]
    for c in range(cols):
        if c not in chart:
            for pair in pairs:
                row = [0] * 20
                for jk, sign, t in table[c]:
                    row[t] = sign * pair[jk]
                rows.append(row)
    return rows


def y_stratum(a: Subspace, v) -> int:
    """dim of the meet with v ^ (2-forms of the 6-space), by the basis of the
    chart i = the last index with v_i != 0 (module docstring)."""
    v = _int_row(v)
    if not any(v):
        raise GmError("zero vector")
    return level(a, point_chart_rows(v, 6))


def y_dual_stratum(a: Subspace, v5: Subspace) -> int:
    """dim of the meet with Lambda^3 V5, the 3-forms on a hyperplane: the
    triple wedges of the 5 basis vectors of V5 are a basis of it, so it has
    dimension C(5, 3) = 10, and the level is 10 minus their rank modulo A."""
    if v5.ambient_dim != 6 or v5.dim != 5:
        raise GmError("expected a hyperplane of the 6-space")
    rows = [wedge(6, 1, 2, x, wedge(6, 1, 1, y, z)) for x, y, z in combinations(v5.int_rows, 3)]
    return level(a, rows)


def z_stratum(a: Subspace, rows) -> int:
    """dim of the meet with (6-space) ^ (2-forms of the 3-space W spanned by
    the 3 rows), by the basis of the chart R = the last 3-set with p_R != 0
    (module docstring).  Any basis of W will do: another one changes the
    Plücker cube w1 ^ w2 ^ w3 by the determinant of the change and the
    w_a ^ w_b by an invertible map of Lambda^2 W, so the chart and the span
    of the rows stay.  Dependent rows, whose cube is 0, are rejected."""
    w = [_int_row(r) for r in rows]
    if len(w) != 3 or any(len(r) != 6 for r in w):
        raise GmError("expected 3 vectors of the 6-space")
    return level(a, plane_chart_rows(w, 6))


@dataclass(frozen=True)
class LineDegreeCertificate:
    """Membership polynomial of a stratum along a line or pencil."""

    kind: str  # "y" or "z"
    base: tuple
    direction: tuple
    poly: Poly
    degree: int
    sample_consistency: int
    contains_line: bool = False


def _lagrangian_family_gens(kind: str, fixed, start, step, choose=min):
    """Generators of the moving Lagrangian in one chart, and the chart
    coordinate c, along the integer line v(t) = start + t step (kind y) or
    pencil w1, w2, w3 = fixed[0], fixed[1], start + t step (kind z).

    Kind y: c = v_i for the first i (``choose`` = max: the last) with v_i(t)
    not identically 0; the generators are ``point_chart_rows`` charted at i.
    Kind z: c = p_R, the first (last) Plücker coordinate (``monomials(6, 3)``
    order) not identically 0; the generators are ``plane_chart_rows``
    charted at R.  They are affine in
    t, so G0 (those at t = 0) and G1 (those at t = 1 minus G0) are their t^k
    coefficients exactly; the 2 (or 4) vectors are independent, so v (or
    w1, w2, w3) is non-zero (independent) at both nodes.
    Returns ((G0, G1), (c0, c1)) with Gk integer and c = c0 + c1 t.
    """
    nodes = [start, [x + y for x, y in zip(start, step)]]  # the moving vector at t = 0 and 1
    if kind == "y":
        values = nodes
    else:
        pair = wedge(6, 1, 1, *fixed)
        values = [wedge(6, 1, 2, u, pair) for u in nodes]  # u ^ w1 ^ w2 = w1 ^ w2 ^ u
    chart = choose(k for k, (x, y) in enumerate(zip(*values)) if x or y)
    if kind == "y":
        g0, g1 = (point_chart_rows(u, 6, chart) for u in nodes)
    else:
        g0, g1 = (plane_chart_rows([*fixed, u], 6, monomials(6, 3)[chart]) for u in nodes)
    g1 = [[y - x for x, y in zip(r0, r1)] for r0, r1 in zip(g0, g1)]
    c0 = values[0][chart]
    return (g0, g1), (c0, values[1][chart] - c0)


def _membership_poly(a: Subspace, gens) -> list[int]:
    """The integer coefficients of the chart determinant
    D(t) = det((G0 + t G1) (A P)^T) up to a constant factor, P the wedge
    pairing and A the primitive integer rows: the rows of A P are built once,
    then one row per generator, so ``line_values`` takes at most one node
    more than the moving generators (10 on a line, 7 on a pencil).

    D = c^e F, e = 4 (line) or 3 (pencil), F the sextic (quartic).  The
    moving Lagrangian is v ^ (2-forms) = Lambda^2(V6/v), or V6 ^ Lambda^2 W,
    an extension of (V6/W) (x) Lambda^2 W by Lambda^3 W, and the e_j outside
    the chart are a basis of V6/v (V6/W) where c != 0, as
    det(v, e_{j != i}) = +-v_i and det(w1, w2, w3, e_C) = +-p_R for C the
    complement of R.  Between two charts that basis changes by a T with
    det T = +-c'/c, so the generators change by Lambda^2 T (5 x 5 T, of
    determinant det(T)^4) or by 1 + T (x) 1_3 modulo Lambda^3 W (det(T)^3),
    and D' = +-(c'/c)^e D.  So D / c^e does not depend on the chart; its
    denominator divides c^e for every chart, so it is a form F of degree
    10 - 4 = 6 in v (7 - 3 = 4 in each w), and D(t) = c(t)^e F(t) exactly.
    Inside a chart the generators are a basis, so F(t) = 0 exactly on the
    stratum, and D = 0 identically exactly when the family lies in it.
    """
    # P is a signed permutation: column j has one entry s, at row i, so (r P)_j = s r_i
    entries = [next((i, s) for i, s in enumerate(col) if s) for col in zip(*top_pairing(6, 3))]
    pair_rows = [[s * r[i] for i, s in entries] for r in a.int_rows]
    m0, m1 = ([[sum(map(mul, g, pr)) for pr in pair_rows] for g in gk] for gk in gens)
    return interpolate(line_values(m0, m1))


def stratum_poly_on_line(
    a: Subspace,
    base,
    direction,
    kind: str = "y",
    seed=0,
) -> LineDegreeCertificate:
    """Degree certificate for the stratum along a line (kind y) or pencil (kind z).

    For kind z the pencil is span(base[0], base[1], base[2] + t * direction).
    The certificate is the chart determinant divided by the chart factor
    v_i^4 (y) or p_R^3 (z), normalized to primitive integer coefficients
    (module docstring), and its roots are checked against direct membership
    at fresh parameters drawn from the seed.  A line with dependent base and
    direction, or a pencil whose four vectors span less than a 4-space (a
    constant family), is rejected.
    """
    dir_t = tuple(vec(direction))
    if kind == "y":
        base_t, exponent = tuple(vec(base)), 4
        vectors = [base_t, dir_t]
    elif kind == "z":
        base_t, exponent = tuple(tuple(vec(u)) for u in base), 3
        if len(base_t) != 3:
            raise GmError("a pencil takes 3 base vectors u1, u2, u3")
        vectors = [*base_t, dir_t]
    else:
        raise GmError("kind must be y or z")
    flat, _ = clear_denominators([x for v in vectors for x in v])
    rows = [flat[k:k + 6] for k in range(0, len(flat), 6)]
    if Subspace.from_rows(6, rows).dim < len(rows):
        if kind == "y":
            raise GmError("degenerate line: base and direction are dependent")
        raise GmError("degenerate pencil: u1, u2, u3 and direction span less than 4 dimensions")

    *fixed, start, step = rows
    gens, chart = _lagrangian_family_gens(kind, fixed, start, step)
    det = _membership_poly(a, gens)
    if not det:
        return LineDegreeCertificate(kind, base_t, dir_t, Poly.zero(), -1, 0, contains_line=True)
    quotient = divide_power(det, *chart, exponent)
    if quotient is None:
        raise ValueError("the chart factor does not divide the determinant")
    g = gcd(*quotient) if quotient[-1] > 0 else -gcd(*quotient)  # the primitive part, leading term > 0
    coeffs = [c // g for c in quotient]

    rng = rng_from_seed(f"{seed}-membership-check")
    params = []
    while len(params) < _SAMPLES:
        num, den = rng.randint(-4 * _SAMPLES, 4 * _SAMPLES), rng.randint(1, 5)
        g = gcd(num, den)
        pq = num // g, den // g  # t = p / q in lowest terms, q > 0
        if pq not in params:
            params.append(pq)
    for (p, q), lvl in zip(params, _sample_levels(a, kind, fixed, start, step, params)):
        if _vanishes_at(coeffs, p, q) != (lvl >= 1):
            raise GmError("certificate disagrees with pointwise membership")
    return LineDegreeCertificate(kind, base_t, dir_t, Poly(coeffs), len(coeffs) - 1, len(params))


def _sample_levels(a: Subspace, kind: str, fixed, start, step, params) -> list[int]:
    """The level at the point q v(p / q) (kind y) or 3-space w1, w2,
    q w3(p / q) (kind z) for each reduced (p, q) of params, by the pencil
    q G0 + p G1 of the generators in the last chart, where its coordinate
    c(p / q) != 0, and by ``y_stratum`` or ``z_stratum`` where it is 0
    (module docstring)."""
    (g0, g1), (c0, c1) = _lagrangian_family_gens(kind, fixed, start, step, max)
    charted = [(p, q) for p, q in params if q * c0 + p * c1]
    ranks = dict(zip(charted, a.pencil_ranks_modulo(g0, g1, charted)))
    levels = []
    for p, q in params:
        if (p, q) in ranks:
            levels.append(len(g0) - ranks[p, q])
        else:  # c(p / q) = 0: the point's own last chart comes earlier
            moving = [q * x + p * y for x, y in zip(start, step)]
            levels.append(y_stratum(a, moving) if kind == "y" else z_stratum(a, [*fixed, moving]))
    return levels


def _vanishes_at(coeffs: list[int], p: int, q: int) -> bool:
    """f(p / q) == 0 for f with integer coefficients c_k and q > 0, in
    integers: q^d f(p / q) is the sum of c_k p^k q^(d - k)."""
    d = len(coeffs) - 1
    return not sum(c * p**k * q**(d - k) for k, c in enumerate(coeffs))
