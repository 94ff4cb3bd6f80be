"""Exact rational matrices and canonically represented linear subspaces.

Integers inside, ``Fraction`` at the API: every scalar a caller sees is a
``fractions.Fraction`` (reduced, positive denominator), while the
eliminations (``Matrix.rref`` and ``det_int``, under rank, kernel, solve,
inverse and every subspace) clear denominators and run over Python ints.
Subspaces are stored as row spaces in reduced row echelon form, so two
subspaces are equal iff their basis matrices are entry-wise equal.  Every
operation here is pure and exact; ambient dimensions in this project never
exceed 30, so dense storage is used throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints/strings/Fractions to an exact rational."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot build an exact rational from {x!r}")


def vec(entries) -> list[Fraction]:
    return [rat(x) for x in entries]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b, strict=True)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b, strict=True)]


def vec_dot(a, b) -> Fraction:
    total = _ZERO
    for x, y in zip(a, b, strict=True):
        if x and y:
            total += x * y
    return total


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def clear_denominators(v) -> tuple[list[int], int]:
    """(d * v as ints, d) for d the least common denominator of v."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def unit_vector(n: int, i: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


class Matrix:
    """Dense matrix over the rationals. Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        self.data = [[rat(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else (cols or 0)
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _make(cls, data: list[list[Fraction]], cols: int) -> "Matrix":
        """Trusted constructor: entries must already be Fractions."""
        m = cls.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._make([[_ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one = Fraction(1)
        return cls._make(
            [[one if i == j else _ZERO for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls([list(r) for r in rows])

    @classmethod
    def from_cols(cls, cols) -> "Matrix":
        return cls([list(r) for r in zip(*cols, strict=True)])

    def row(self, i: int) -> list[Fraction]:
        return list(self.data[i])

    def col(self, j: int) -> list[Fraction]:
        return [self.data[i][j] for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def copy_data(self) -> list[list[Fraction]]:
        return [list(row) for row in self.data]

    def transpose(self) -> "Matrix":
        if self.rows == 0 or self.cols == 0:
            return Matrix.zero(self.cols, self.rows)
        return Matrix._make([list(col) for col in zip(*self.data)], self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._make(
            [vec_add(a, b) for a, b in zip(self.data, other.data)], self.cols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._make(
            [vec_sub(a, b) for a, b in zip(self.data, other.data)], self.cols
        )

    def __neg__(self) -> "Matrix":
        return Matrix._make([[-x for x in row] for row in self.data], self.cols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix._make([[c * x for x in row] for row in self.data], self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if not self.data or not other.data:
            return Matrix.zero(self.rows, other.cols)
        odata = other.data
        ocols = other.cols
        out = []
        for row in self.data:
            acc = [_ZERO] * ocols
            for i, x in enumerate(row):
                if x:
                    orow = odata[i]
                    acc = [a + x * y if y else a for a, y in zip(acc, orow)]
            out.append(acc)
        return Matrix._make(out, ocols)

    def apply(self, v) -> list[Fraction]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [vec_dot(row, v) for row in self.data]

    def left_apply(self, v) -> list[Fraction]:
        """Row vector times matrix."""
        if len(v) != self.rows:
            raise ValueError("vector length mismatch")
        acc = [_ZERO] * self.cols
        for x, row in zip(v, self.data):
            if x:
                acc = [a + x * y if y else a for a, y in zip(acc, row)]
        return acc

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols and self.rows and other.rows:
            raise ValueError("column mismatch in vstack")
        return Matrix(self.copy_data() + other.copy_data())

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix([[self.data[i][j] for j in col_idx] for i in row_idx])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i] for i in range(self.rows) for j in range(i)
        )

    def is_skew(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == -self.data[j][i] for i in range(self.rows) for j in range(i + 1)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form. Returns (rref matrix, rank, pivot columns).

        Gauss-Jordan over int: each row is cleared of denominators, and an
        updated row is divided by the gcd of its entries, which keeps the
        entries small.  Only the final pivot rows are divided by their
        pivots; the RREF is unique, so this is the rational RREF exactly.
        """
        m = [clear_denominators(row)[0] for row in self.data]
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pr = next((i for i in range(r, rows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            mr = m[r]
            pv = mr[c]
            for i, mi in enumerate(m):
                f = mi[c]
                if f and i != r:
                    g = gcd(pv, f)
                    a, b = pv // g, f // g
                    row = [a * x - b * y for x, y in zip(mi, mr)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
        out = [[Fraction(x, row[c]) if x else _ZERO for x in row] for row, c in zip(m, pivots)]
        out += [[_ZERO] * cols for _ in range(rows - r)]
        return Matrix._make(out, cols), r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def det(self) -> Fraction:
        """Determinant: clear each row's denominators, then ``det_int``."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        scale = 1
        int_rows = []
        for row in self.data:
            int_row, d = clear_denominators(row)
            int_rows.append(int_row)
            scale *= d
        return Fraction(det_int(int_rows), scale)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix([row + ident for row, ident in zip(self.copy_data(), Matrix.identity(n).data)])
        red, rank, _ = aug.rref()
        if rank < n:
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in red.data])

    def solve(self, b) -> list[Fraction] | None:
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = Matrix([row + [bv] for row, bv in zip(self.copy_data(), b)])
        red, _, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, c in enumerate(pivots):
            x[c] = red.data[r][self.cols]
        return x


def det_int(rows) -> int:
    """Determinant of a square matrix of Python ints by fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).

    Each step replaces the remaining block by the 2x2 minors against the
    pivot divided by the previous pivot; by Sylvester's identity the
    division is exact, so every intermediate entry is a minor of the
    row-permuted input and stays an integer.
    """
    m = [list(r) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    while len(m) > 1:
        pr = next((i for i, r in enumerate(m) if r[0]), None)
        if pr is None:
            return 0
        if pr:
            m[0], m[pr] = m[pr], m[0]
            sign = -sign
        pivot, *tail = m[0]
        m = [[(pivot * x - r[0] * y) // prev for x, y in zip(r[1:], tail)] for r in m[1:]]
        prev = pivot
    return sign * m[0][0] if m else 1


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form of m together with its rank."""
    red, rank, _ = m.rref()
    return red, rank


def solve_multi(m: Matrix, rhs_rows) -> list[list[Fraction]] | None:
    """Solutions x_i of m @ x_i = rhs_i for several right-hand sides at once.

    One elimination pass over the augmented matrix; returns None if any
    system is inconsistent.
    """
    rhs_rows = [list(r) for r in rhs_rows]
    k = len(rhs_rows)
    if k == 0:
        return []
    aug = Matrix(
        [row + [rhs_rows[t][i] for t in range(k)] for i, row in enumerate(m.copy_data())]
    )
    red, _, pivots = aug.rref()
    main_pivots = [p for p in pivots if p < m.cols]
    if len(main_pivots) != len(pivots):
        return None
    sols = []
    for t in range(k):
        x = [Fraction(0)] * m.cols
        for r, c in enumerate(main_pivots):
            x[c] = red.data[r][m.cols + t]
        sols.append(x)
    return sols


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m x = 0} as a canonical subspace of k^cols."""
    red, rank, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red.data[r][f]
        basis.append(v)
    return Subspace.from_rows(m.cols, basis)


class Subspace:
    """A linear subspace of k^n stored as an RREF row-space basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        rows = [vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("basis vector length differs from ambient dimension")
        if not rows:
            return cls(ambient_dim, Matrix.zero(0, ambient_dim), ())
        red, rank, pivots = Matrix(rows).rref()
        return cls(ambient_dim, Matrix(red.data[:rank], cols=ambient_dim), pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> list[list[Fraction]]:
        return self.basis.copy_data()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains(self, v) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v) -> list[Fraction] | None:
        """Coefficients of v in the RREF basis, or None if v is outside.

        For an RREF basis the coefficient of basis row r is just v[pivot_r]
        after which the remainder must vanish.
        """
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        coeffs = [v[c] for c in self.pivots]
        rem = list(v)
        for coef, row in zip(coeffs, self.basis.data):
            if coef != 0:
                rem = [a - coef * b for a, b in zip(rem, row)]
        return coeffs if is_zero_vec(rem) else None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(row) for row in other.basis.data)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_rows(
            self.ambient_dim, self.basis.copy_data() + other.basis.copy_data()
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def meet_dim(self, other: "Subspace") -> int:
        """dim of the intersection, from one elimination of the stacked bases:
        dim + dim - dim of the sum."""
        self._check_ambient(other)
        stacked = Matrix._make(self.basis.data + other.basis.data, self.ambient_dim)
        return self.dim + other.dim - stacked.rank()

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, in dual coordinates.

        An inclusion-reversing involution under the double-dual identification.
        """
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return kernel(self.basis)
