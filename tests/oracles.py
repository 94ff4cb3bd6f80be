"""Test-local ``Fraction`` oracles: the rational formulas that the integer
layer of ``gmepw`` replaced, kept here to check it against."""

from fractions import Fraction

from gmepw.exterior import monomial, top_pairing, wedge
from gmepw.gm import GMData, ValidationReport
from gmepw.linalg import Matrix, vec, vec_dot


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def scale(m: Matrix, c) -> Matrix:
    return Matrix([[c * x for x in row] for row in m.data], cols=m.cols)


def add(a: Matrix, b: Matrix) -> Matrix:
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)], cols=a.cols)


def solve(m: Matrix, b) -> list[Fraction] | None:
    """The particular solution of m x = b read off the RREF of [m | b], free
    coordinates 0, or None if inconsistent."""
    assert len(b) == m.rows
    red, _, pivots = Matrix([row + [Fraction(x)] for row, x in zip(m.copy_data(), b)]).rref()
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.data[r][m.cols]
    return x


def q_of(d: GMData, v) -> Matrix:
    """q(v) as the sum of the six scaled ``Fraction`` matrices."""
    acc = Matrix.zero(d.w_dim, d.w_dim)
    for c, m in zip(vec(v), d.q, strict=True):
        if c != 0:
            acc = add(acc, scale(m, c))
    return acc


def plucker_gram(mu: Matrix, i: int, epsilon) -> Matrix:
    """epsilon * top(e_i ^ mu(w_a) ^ mu(w_b)) over the ``Fraction`` columns of mu."""
    ei = monomial(5, (i,))
    cols = [mu.col(b) for b in range(mu.cols)]
    paired = [[vec_dot(t, c) for t in top_pairing(5, 3)] for c in cols]
    return Matrix([[epsilon * vec_dot(wedge(5, 1, 2, ei, a), p) for p in paired] for a in cols], cols=mu.cols)


def validate_identities(d: GMData, grams=None) -> ValidationReport:
    """The symmetry and Pluecker loops of ``gm.validate`` over ``Fraction``
    grams, without the classification: gm_type is always None.  The five
    grams of ``plucker_gram`` may be passed in when many data share mu and
    epsilon."""
    for i, m in enumerate(d.q):
        if not m.is_symmetric():
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
    ann = Subspace.from_rows(L2V5_DIM, [d.mu.col(j) for j in range(d.w_dim)]).annihilator().int_rows
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
