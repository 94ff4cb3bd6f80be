"""Test-local ``Fraction`` oracles: the rational formulas that the integer
layer of ``gmepw`` replaced, kept here to check it against."""

from dataclasses import dataclass
from fractions import Fraction
import operator

from gmepw.exterior import SymplecticSpace, monomial, monomials, top_pairing, wedge
from gmepw.gm import GMData, ValidationReport
from gmepw.linalg import Matrix, Subspace, _gauss_jordan, over_pivots, vec
from gmepw.quadrics import LagrangianDecomposition, _times_form, omega_orthogonal
from gmepw.sampling import random_symmetric

# The ``Fraction`` matrix algebra that ``linalg.Matrix`` carried before the
# library moved onto integer rows: the former methods as plain functions.


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def zero(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)], cols=cols)


def from_cols(cols) -> Matrix:
    return Matrix([list(r) for r in zip(*cols, strict=True)])


def col(m: Matrix, j: int) -> list[Fraction]:
    return [row[j] for row in m.data]


def copy_data(m: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in m.data]


def vec_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def transpose(m: Matrix) -> Matrix:
    return Matrix([list(c) for c in zip(*m.data)], cols=m.rows) if m.rows and m.cols else zero(m.cols, m.rows)


def sub(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return Matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)], cols=a.cols)


def mul(a: Matrix, *others: Matrix) -> Matrix:
    """The product of the matrices, left to right."""
    for b in others:
        if a.cols != b.rows:
            raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
        a = Matrix([[vec_dot(row, c) for c in zip(*b.data)] if b.rows else [0] * b.cols for row in a.data],
                   cols=b.cols)
    return a


def apply(m: Matrix, v) -> list[Fraction]:
    """Matrix times column vector."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return [vec_dot(row, v) for row in m.data]


def left_apply(m: Matrix, v) -> list[Fraction]:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise ValueError("vector length mismatch")
    return [vec_dot(v, c) for c in zip(*m.data)] if m.rows else [Fraction(0)] * m.cols


def is_symmetric(m: Matrix) -> bool:
    return m.rows == m.cols and all(m.data[i][j] == m.data[j][i] for i in range(m.rows) for j in range(i))


def inverse(m: Matrix) -> Matrix:
    """The inverse by Gauss-Jordan over ``Fraction`` on [m | identity]."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m.data)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise ValueError("matrix is singular")
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return Matrix([r[n:] for r in aug], cols=n)


def coordinates_of(s: Subspace, v) -> list[Fraction] | None:
    """Coefficients of v in the RREF basis of s, or None if v is outside: for
    an RREF basis the coefficient of basis row r is just v[pivot_r]."""
    return [Fraction(v[c]) for c in s.pivots] if s.contains(v) else None


def random_matrix(rng, rows: int, cols: int, height: int = 5) -> Matrix:
    """The former ``sampling.random_matrix``: entries drawn row by row."""
    return Matrix([[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)], cols=cols)


def form(space) -> Matrix:
    """The ``Fraction`` matrix of a ``SymplecticSpace``'s form."""
    nonzero, d = space.int_form
    n = space.total_dim
    return Matrix.from_int_rows([[dict(r).get(j, 0) for j in range(n)] for r in nonzero], d, n)


def omega(space, u, v) -> Fraction:
    """The form of a ``SymplecticSpace`` on two vectors, read off ``form``."""
    return vec_dot(u, apply(form(space), v))


def symplectic_basis(space) -> tuple[list, list]:
    """The former ``sampling.symplectic_basis``: a symplectic frame (p_i, q_i)
    with omega(p_i, q_j) = delta_ij and isotropic blocks, by the greedy
    Gram-Schmidt from the standard coordinates over ``Fraction``."""
    entries = [(i, j, c) for i, row in enumerate(form(space).data) for j, c in enumerate(row) if c]

    def w(x, y):
        return sum((x[i] * c * y[j] for i, j, c in entries), Fraction(0))

    n = space.total_dim
    remaining = Subspace.full(n)
    ps, qs = [], []
    while remaining.dim > 0:
        p = remaining.basis_rows()[0]
        # find a partner with omega(p, q) nonzero inside the remaining space
        q = None
        for cand in remaining.basis_rows()[1:]:
            val = w(p, cand)
            if val != 0:
                q = [x / val for x in cand]
                break
        if q is None:
            raise ValueError("form degenerate on the remaining space")
        ps.append(p)
        qs.append(q)
        # orthogonalize the rest against the hyperbolic pair
        new_rows = []
        for r in remaining.basis_rows():
            a = w(p, r)
            b = w(q, r)
            new_rows.append([x - a * y + b * z for x, y, z in zip(r, q, p)])
        candidate = Subspace.from_rows(n, new_rows)
        pq = Subspace.from_rows(n, [p, q])
        remaining = candidate.intersect(omega_orthogonal(space, pq))
    return ps, qs


def random_lagrangian(space, rng, height: int = 4) -> Subspace:
    """The former ``sampling.random_lagrangian``: the graph over the
    ``Fraction`` frame of ``symplectic_basis``, with the same draws."""
    m = space.total_dim // 2
    ps, qs = symplectic_basis(space)
    if rng.random() < 0.5:
        ps, qs = qs, [[-x for x in p] for p in ps]
    s = random_symmetric(rng, m, height, rank=rng.choice([m, m, m, rng.randint(0, m)]))
    rows = []
    for i in range(m):
        v = list(ps[i])
        for j in range(m):
            if s[i][j] != 0:
                v = [x + s[i][j] * y for x, y in zip(v, qs[j])]
        rows.append(v)
    return Subspace.from_rows(space.total_dim, rows)


def exterior_power_matrix(f: Matrix, degree: int) -> Matrix:
    """The induced ``Fraction`` matrix on the exterior power; column I is the
    wedge of the columns of f at I, in monomial order."""
    if f.rows != f.cols:
        raise ValueError("change of basis must be square")
    n = f.rows
    cols = []
    for m in monomials(n, degree):
        acc = col(f, m[0])
        for p, i in enumerate(m[1:], start=1):
            acc = wedge(n, p, 1, acc, col(f, i))
        cols.append(acc)
    return from_cols(cols)


def scale(m: Matrix, c) -> Matrix:
    return Matrix([[c * x for x in row] for row in m.data], cols=m.cols)


def add(a: Matrix, b: Matrix) -> Matrix:
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)], cols=a.cols)


def solve(m: Matrix, b) -> list[Fraction] | None:
    """The particular solution of m x = b read off the RREF of [m | b], free
    coordinates 0, or None if inconsistent."""
    assert len(b) == m.rows
    red, _, pivots = Matrix([row + [Fraction(x)] for row, x in zip(copy_data(m), b)]).rref()
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.data[r][m.cols]
    return x


def gm_data(n: int, mu: Matrix, q, epsilon=Fraction(1)) -> GMData:
    """The GM data of ``Fraction`` matrices mu and q."""
    return GMData(n, (mu.data, 1), [(g.data, 1) for g in q], epsilon)


def q_of(d: GMData, v) -> Matrix:
    """q(v) as the sum of the six scaled ``Fraction`` matrices."""
    acc = zero(d.w_dim, d.w_dim)
    for c, m in zip(vec(v), d.q, strict=True):
        if c != 0:
            acc = add(acc, scale(m, c))
    return acc


def plucker_gram(mu: Matrix, i: int, epsilon) -> Matrix:
    """epsilon * top(e_i ^ mu(w_a) ^ mu(w_b)) over the ``Fraction`` columns of mu."""
    ei = monomial(5, (i,))
    cols = [col(mu, b) for b in range(mu.cols)]
    paired = [[vec_dot(t, c) for t in top_pairing(5, 3)] for c in cols]
    return Matrix([[epsilon * vec_dot(wedge(5, 1, 2, ei, a), p) for p in paired] for a in cols], cols=mu.cols)


def validate_identities(d: GMData, grams=None) -> ValidationReport:
    """The symmetry and Pluecker loops of ``gm.validate`` over ``Fraction``
    grams, without the classification: gm_type is always None.  The five
    grams of ``plucker_gram`` may be passed in when many data share mu and
    epsilon."""
    for i, m in enumerate(d.q):
        if not is_symmetric(m):
            return ValidationReport(False, None, f"q(e{i+1}) is not symmetric")
    grams = grams or [plucker_gram(d.mu, i, d.epsilon) for i in range(5)]
    for i in range(5):
        expected = grams[i].data
        for a in range(d.w_dim):
            for b in range(a, d.w_dim):
                if d.q[i].data[a][b] != expected[a][b]:
                    return ValidationReport(
                        False, None, f"q(e{i+1})(w{a+1}, w{b+1}) violates the wedge identity", witness=(i, a, b)
                    )
    return ValidationReport(True, None)


# integer tokens at the edges of the plain-integer fast path of io.parse_rat:
# signs, spaces, underscores, leading zeros, a non-ASCII digit, a bare sign,
# 19 digits, and 4,301 digits (past the interpreter's int-string limit)
INTEGER_TOKENS = ["+5", " 7 ", "1_000", "007", "-0", "\u0663", "-", "-" + "9" * 19, "1" + "0" * 4300]


def parse_rat(s, where: str = "scalar") -> Fraction:
    """``io.parse_rat`` with every string token read by ``Fraction(str)``."""
    from gmepw.io import _EXPONENT, MAX_EXPONENT, MAX_TOKEN_CHARS, DocumentError

    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"{where}: expected a rational string, got {s!r}")
    if len(s) > MAX_TOKEN_CHARS:
        raise DocumentError(f"{where}: rational of {len(s)} characters, more than {MAX_TOKEN_CHARS}")
    try:
        exp = _EXPONENT.search(s)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond +-{MAX_EXPONENT}")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: malformed rational {s!r} ({exc})") from None


def hull_point_sample(d: GMData, seed) -> list[Fraction]:
    """``gm.hull_point_sample`` over ``Fraction`` rows: the same sampled
    directions, and the point from ``solve`` on mu."""
    from gmepw.gm import L2V5_DIM, GmError
    from gmepw.linalg import Subspace
    from gmepw.sampling import random_nonzero_vector, rng_from_seed

    rng = rng_from_seed(seed)
    ann = Subspace.from_rows(L2V5_DIM, [col(d.mu, j) for j in range(d.w_dim)]).annihilator().int_rows
    for _ in range(100):
        v1 = random_nonzero_vector(rng, 5, 4)
        wedges = [wedge(5, 1, 1, v1, monomial(5, (j,))) for j in range(5)]
        sol = Subspace.from_rows(5, [[vec_dot(f, wj) for wj in wedges] for f in ann]).annihilator()
        v1_line = Subspace.from_rows(5, [v1])
        candidate = next((row for row in sol.basis_rows() if not v1_line.contains(row)), None)
        if candidate is None:
            continue
        target = wedge(5, 1, 1, v1, candidate)
        if not any(target):
            continue
        w = solve(d.mu, target)
        if w is not None:
            return w
    raise GmError("hull sampling failed after 100 attempts")


def root_multiplicity(p, t0) -> int:
    """The multiplicity of the root t0 of a non-zero ``Poly`` (0 if not a
    root), by evaluating at t0 and dividing by (t - t0) while it vanishes:
    the former ``Poly.root_multiplicity``."""
    from gmepw.polynomials import Poly

    assert not p.is_zero()
    t0 = Fraction(t0)
    mult = 0
    lin = Poly([-t0, 1])
    while p(t0) == 0:
        p = exact_div(p, lin)
        mult += 1
    return mult


def exact_div(p, q):
    """The quotient of ``Poly`` p by q over the rationals, which must leave
    no remainder: the former ``Poly.exact_div``."""
    quotient, remainder = p.divmod(q)
    if not remainder.is_zero():
        raise ValueError("division is not exact")
    return quotient


def newton_interpolate(points):
    """The ``Poly`` through exact (x, y) pairs with distinct x, by Newton
    divided differences over ``Fraction`` expanded in Horner form: the
    former ``polynomials.interpolate``, for rational nodes and values."""
    from gmepw.polynomials import Poly

    points = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    dd = [y for _, y in points]
    n = len(dd)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # p = dd[0] + (t - x0)(dd[1] + (t - x1)(dd[2] + ...)), innermost first
    coeffs: list[Fraction] = []
    for i in range(n - 1, -1, -1):
        xi = xs[i]
        shifted = [Fraction(0)] + coeffs
        if xi:
            for k, c in enumerate(coeffs):
                shifted[k] -= xi * c
        shifted[0] += dd[i]
        coeffs = shifted
    return Poly(coeffs)


def discriminant_on_line(d: GMData, v_a, v_b):
    """``gm.discriminant_on_line`` over ``Fraction``: the determinant
    interpolated from w + 1 rational determinants of q(v_a) + t q(v_b), and
    the former chain of ``Poly.divmod`` quotients by lambda, with the former
    rule for the reduced form (the degree drop when lambda is constant)."""
    from gmepw.gm import DiscriminantLine, GmError
    from gmepw.polynomials import Poly

    v_a, v_b = vec(v_a), vec(v_b)
    lam = Poly([v_a[5], v_b[5]])
    qa, qb = q_of(d, v_a), q_of(d, v_b)
    det_poly = newton_interpolate([(t, add(qa, scale(qb, t)).det()) for t in range(d.w_dim + 1)])
    if det_poly.is_zero():
        return DiscriminantLine(det_poly, 0, None, dis_is_everything=True)
    expected = d.n - 1
    if lam.degree == 1:
        quotients = [det_poly]
        while True:
            q, r = quotients[-1].divmod(lam)
            if not r.is_zero():
                break
            quotients.append(q)
        mult = len(quotients) - 1
    else:
        mult = d.w_dim - det_poly.degree
    if mult < expected:
        raise GmError("determinant is not divisible by the expected hyperplane power")
    if expected < 0:  # n = 0: dis = det * lambda
        dis = det_poly * lam
    elif lam.degree == 1:
        dis = quotients[expected]
    else:
        dis = det_poly.scale(lam.coeffs[0] ** -expected)
    return DiscriminantLine(det_poly, mult, dis, mult_exceeds_expected=mult > expected)


def line_det(p0, p1):
    """det(p0 + t p1) for square integer rows p0 and p1 as a ``Poly``,
    interpolated from ``polynomials.line_values``: the former
    ``polynomials.line_det``."""
    from gmepw.polynomials import Poly, interpolate, line_values

    return Poly(interpolate(line_values(p0, p1)))


def format_matrix(m: Matrix) -> list[list[str]]:
    """The tokens of a ``Fraction`` matrix, each by ``io.format_rat``: the
    former ``io.format_matrix``, which wrote GM and Lagrangian documents."""
    from gmepw.io import format_rat

    return [[format_rat(x) for x in row] for row in m.data]


def emit_json(obj) -> str:
    """The text ``io.emit`` writes for a document object: the former
    ``json.dumps`` call, which runs the standard library's pure-Python
    indenting encoder."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The explicit quotient I-perp / I that ``quadrics.isotropic_reduce`` built
# before it returned the lift a meet I-perp: a canonical model of the
# quotient, the reduced symplectic space, the reduced decomposition and the
# reduced Lagrangian.


class QuotientModel:
    """Coordinates on U/I for nested subspaces I inside U, with U given by
    the span of its equations: U is their annihilator.

    The complement basis consists of the RREF rows of U whose pivots are not
    pivots of I, which makes the model canonical; ``comp_int_rows`` holds
    them as U's primitive integer rows, each the RREF row times its pivot.
    """

    def __init__(self, inner, equations):
        if any(sum(map(operator.mul, f, r)) for f in equations.int_rows for r in inner.int_rows):
            raise ValueError("inner subspace is not contained in the outer one")
        outer = equations.annihilator()
        self.inner = inner
        self.outer = outer
        inner_pivots = set(inner.pivots)
        self.comp_int_rows = [r for r, p in zip(outer.int_rows, outer.pivots) if p not in inner_pivots]
        self.comp_pivots = [p for p in outer.pivots if p not in inner_pivots]
        self.dim = len(self.comp_int_rows)
        self.equations = equations.int_rows

    def project_subspace(self, s):
        """The image of s meet U in U/I, by one elimination of the rows
        [f(s_i) over the equations f | the coordinates of s_i + I] of
        ``project_contained``.  The meet is spanned by the combinations
        sum c_i s_i with sum c_i f(s_i) = 0, and those coordinates are
        linear, so the reduced rows with their pivot in the second block
        span the image, in reduced row echelon form."""
        e = len(self.equations)
        stack = []
        for r in s.int_rows:
            w = self.inner.remainder(r)
            stack.append([sum(map(operator.mul, f, r)) for f in self.equations] + [w[p] for p in self.comp_pivots])
        rows, pivots = _gauss_jordan(stack, e + self.dim)
        return Subspace(self.dim, [r[e:] for r, c in zip(rows, pivots) if c >= e],
                        tuple(c - e for c in pivots if c >= e))

    def project_contained(self, rows):
        """The image in U/I of the span of integer rows lying in U: up to a
        positive scalar, the coordinates of v + I in the complement basis are
        those of the remainder of v modulo I at the complement pivots."""
        rows = [self.inner.remainder(v) for v in rows]
        return Subspace.from_rows(self.dim, [[w[p] for p in self.comp_pivots] for w in rows])


@dataclass(frozen=True)
class IsotropicReduction:
    """Result of reducing a decomposed space by an isotropic subspace of l1."""

    reduced: LagrangianDecomposition
    reduced_a: Subspace
    model: QuotientModel


def isotropic_reduce(dec, a, iso) -> IsotropicReduction:
    """Pass to I-perp mod I, carrying the Lagrangian a and the decomposition:
    the former ``quadrics.isotropic_reduce``."""
    space = dec.space
    if not dec.l1.contains_subspace(iso):
        raise ValueError("isotropic subspace must lie in the first summand")
    # I-perp is the annihilator of the rows of I times the form
    model = QuotientModel(iso, Subspace.from_rows(space.total_dim, _times_form(space, iso.int_rows)))
    # the complement rows over L, the lcm of their pivot entries, are RREF
    # rows: they pair under d * form to d L^2 times the reduced form
    comp, big = over_pivots(model.comp_int_rows, model.comp_pivots)
    form = [[sum(map(operator.mul, x, y)) for y in comp] for x in _times_form(space, comp)]
    red_space = SymplecticSpace(form, space.int_form[1] * big * big)
    red_l1 = model.project_contained(dec.l1.int_rows)  # I in l1 = l1-perp, so l1 lies in I-perp
    red_dec = LagrangianDecomposition(red_space, red_l1, model.project_subspace(dec.l2))
    return IsotropicReduction(red_dec, model.project_subspace(a), model)
