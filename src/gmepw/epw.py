"""EPW stratifications: point and hyperplane strata, the incidence condition,
the quartic strata on 3-spaces, and degree certificates along lines and
pencils.

Membership in a stratum is a rank statement about the meet of the Lagrangian
with a moving Lagrangian family.  Along a line the membership locus is cut
out by one determinant; the determinant of a compressed pairing matrix picks
up chart factors, which are removed exactly by taking the gcd over several
independent compressions and certified against pointwise membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exterior import top_pairing, wedge_gens, wedge_space
from .gm import GmError
from .linalg import Matrix, Subspace, clear_denominators, det_int, vec
from .polynomials import Poly, interpolate, poly_gcd
from .sampling import random_matrix, rng_from_seed


def y_stratum(a: Subspace, v) -> int:
    """dim of the meet with v ^ (2-forms of the 6-space)."""
    v = vec(v)
    if all(x == 0 for x in v):
        raise GmError("zero vector")
    line = Subspace.from_rows(6, [v])
    return a.meet_dim(wedge_space(line, Subspace.full(6)))


def y_dual_stratum(a: Subspace, v5: Subspace) -> int:
    """dim of the meet with the 3-forms on a hyperplane."""
    from .exterior import wedge_cube

    if v5.ambient_dim != 6 or v5.dim != 5:
        raise GmError("expected a hyperplane of the 6-space")
    return a.meet_dim(wedge_cube(v5))


def y_hat_member(a: Subspace, v, v5: Subspace) -> int:
    """dim of the meet with v ^ (2-forms on the hyperplane); v must lie in it."""
    v = vec(v)
    if v5.ambient_dim != 6 or v5.dim != 5:
        raise GmError("expected a hyperplane of the 6-space")
    if not v5.contains(v):
        raise GmError("the point must lie on the hyperplane")
    line = Subspace.from_rows(6, [v])
    return a.meet_dim(wedge_space(line, v5))


def z_stratum(a: Subspace, v3: Subspace) -> int:
    """dim of the meet with (6-space) ^ (2-forms of a 3-space)."""
    if v3.ambient_dim != 6 or v3.dim != 3:
        raise GmError("expected a 3-dimensional subspace of the 6-space")
    return a.meet_dim(wedge_space(Subspace.full(6), v3))


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


def _lagrangian_family_gens(kind: str, base, direction):
    """Generators of the moving Lagrangian along a line (kind y) or pencil (kind z).

    Kind y: v(t) ^ e_jk, v(t) = base + t direction; kind z: e_k ^ w_i ^ w_j
    over the pairs of w1, w2, w3 = base[0], base[1], base[2] + t direction.
    The vectors are first multiplied by their common denominator d.  The
    generators are affine in t, so G0 (those at t = 0) and G1 (those at
    t = 1 minus G0) are their t^k coefficients exactly.  Returns
    ((G0, G1), scale) with Gk integer and scale = d (y) or d^2 (z, where the
    generators are bilinear in the w's).
    """
    vectors = [base, direction] if kind == "y" else [*base, direction]
    flat, d = clear_denominators([x for v in vectors for x in vec(v)])
    *fixed, start, step = [flat[k:k + 6] for k in range(0, len(flat), 6)]
    units = Subspace.full(6).int_rows

    def gens(t: int) -> list:
        moving = [*fixed, [a + t * b for a, b in zip(start, step)]]
        return wedge_gens(moving, units) if kind == "y" else wedge_gens(units, moving)

    g0, g1 = gens(0), gens(1)
    g1 = [[y - x for x, y in zip(r0, r1)] for r0, r1 in zip(g0, g1)]
    return (g0, g1), (d if kind == "y" else d * d)


def _membership_poly(a: Subspace, gens, scale: int, seed, tries: int = 6) -> Poly | None:
    """gcd of compressed pairing determinants along the family.

    The pairing of the Lagrangian basis against generators of the moving
    Lagrangian vanishes exactly on the membership locus; a random compression
    to a square matrix multiplies the locus polynomial by a chart factor that
    a second independent compression almost surely avoids.  Returns None when
    the determinant vanishes identically for every compression (the family
    stays inside the stratum).

    gens = (G0, G1) holds the coefficients of the affine generators
    G0 + t G1, as ints times scale.  The integer pairing
    P(t) = (A G) (G0 + t G1)^T, G the wedge Gram matrix, is built once per
    node t = 0 .. 10 with each row of A G cleared of denominators, and each
    compression C costs det_int(P C^T).  P C^T is 10 x 10 with entries
    affine in t, so its determinant has degree at most 10 and the 11 nodes
    determine it.
    Dividing by the product of the row scales and scale^10 gives the
    determinant of the rational pairing exactly.
    """
    rng = rng_from_seed(seed)
    gram = top_pairing(6, 3)
    pair_rows = []  # functionals on 3-forms, as ints
    den = 1
    for r in a.basis_rows():
        row, d = clear_denominators(gram.left_apply(r))
        pair_rows.append(row)
        den *= d * scale
    p0, p1 = ([[sum(map(mul, pr, g)) for g in gk] for pr in pair_rows] for gk in gens)
    nodes = range(11)
    pairings = [[[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(p0, p1)] for t in nodes]
    n_gens = len(gens[0])

    g: Poly | None = None
    for _ in range(tries):
        comp = [[x.numerator for x in row] for row in random_matrix(rng, 10, n_gens, 3).data]
        pts = [
            (t, Fraction(det_int([[sum(map(mul, prow, c)) for c in comp] for prow in pt]), den))
            for t, pt in zip(nodes, pairings)
        ]
        p = interpolate(pts)
        if p.is_zero():
            continue
        g = p if g is None else poly_gcd(g, p)
        if g.degree == 0:
            break
    return g


def stratum_poly_on_line(
    a: Subspace,
    base,
    direction,
    kind: str = "y",
    seed=0,
    samples: int = 20,
) -> LineDegreeCertificate:
    """Degree certificate for the stratum along a line (kind y) or pencil (kind z).

    For kind z the pencil is span(base[0], base[1], base[2] + t * direction).
    The certificate polynomial is normalized to primitive integer
    coefficients, its degree is checked against the sextic (y) or quartic
    (z) bound, and its roots are checked against direct membership at fresh
    parameters.  A line with dependent base and direction, or a pencil whose
    four vectors span less than a 4-space (a constant family), is rejected.
    """
    if kind == "y":
        if Matrix([vec(base), vec(direction)]).rank() < 2:
            raise GmError("degenerate line: base and direction are dependent")
        base_t = tuple(vec(base))
        max_degree = 6

        def member(t: Fraction) -> bool:
            v = [b + t * d for b, d in zip(vec(base), vec(direction))]
            return y_stratum(a, v) >= 1

    elif kind == "z":
        u1, u2, u3 = base
        if Matrix([vec(u) for u in (u1, u2, u3, direction)]).rank() < 4:
            raise GmError("degenerate pencil: u1, u2, u3 and direction span less than 4 dimensions")
        base_t = tuple(tuple(vec(u)) for u in base)
        max_degree = 4

        def member(t: Fraction) -> bool:
            w3 = [Fraction(x) + t * Fraction(y) for x, y in zip(vec(u3), vec(direction))]
            return z_stratum(a, Subspace.from_rows(6, [vec(u1), vec(u2), w3])) >= 1

    else:
        raise GmError("kind must be y or z")

    dir_t = tuple(vec(direction))
    gens, scale = _lagrangian_family_gens(kind, base, direction)
    raw = _membership_poly(a, gens, scale, seed)
    if raw is None:
        return LineDegreeCertificate(kind, base_t, dir_t, Poly.zero(), -1, 0, contains_line=True)
    poly = raw.primitive()
    if poly.degree > max_degree:
        raise GmError(
            f"certificate of degree {poly.degree} exceeds {max_degree}: a chart factor survived"
        )

    rng = rng_from_seed(f"{seed}-membership-check")
    checked = 0
    used = set()
    while checked < samples:
        t_val = Fraction(rng.randint(-4 * samples, 4 * samples), rng.randint(1, 5))
        if t_val in used:
            continue
        used.add(t_val)
        if (poly(t_val) == 0) != member(t_val):
            raise GmError("certificate disagrees with pointwise membership")
        checked += 1
    return LineDegreeCertificate(kind, base_t, dir_t, poly, poly.degree, checked)
