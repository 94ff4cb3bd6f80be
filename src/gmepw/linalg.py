"""Exact rational matrices and canonically represented linear subspaces.

Integers inside, ``Fraction`` at the API edge: every scalar a caller sees is
a ``fractions.Fraction`` (reduced, positive denominator), while all the
arithmetic (one integer Gauss-Jordan under every subspace, and
``int_image_and_lifts`` under every inverse and lift; one packed-row
Bareiss elimination, ``_eliminate``, under every rank and determinant)
runs over Python ints.  A rational matrix has one integer form, integer
rows over one positive denominator, and only this module converts:
``over_lcd`` puts rows over their least common denominator, ``over_pivots``
puts primitive RREF rows over the lcm of their pivot entries, and
``Matrix.from_int_rows`` builds the ``Fraction`` edge.  A ``Matrix`` has no
arithmetic: it is read through its entries, and its ``rref``, ``rank`` and
``det`` clear denominators into the integer eliminations.
A subspace holds its reduced row echelon basis as primitive integer rows
with positive pivots, which is canonical exactly when the RREF is, so two
subspaces are equal iff those rows are; sums, meets, annihilators and
membership work on them directly, and the ``Fraction`` rows of ``basis``
are built only when asked for.  A meet dimension is a reduction modulo the
RREF: ``remainder`` is the linear map w -> L w - sum_r w[c_r] (L / p_r) row_r
(L the lcm of the pivot entries p_r), which vanishes at every pivot and
exactly on the subspace.  Being linear, the remainder of any vector is the
combination of the remainders of the unit vectors that its coordinates
give; a subspace caches those on the free columns on first use
(``unit_remainders``), and ``rank_modulo`` ranks such combinations, with
no stacked elimination.  Every operation here is pure and exact; ambient
dimensions in this project never exceed 30, so dense storage is used
throughout.

The Bareiss loop runs on packed rows: a row r is the integer
R = sum_j r_j 2^(s j) of signed slots of width s.  While every |r_j| <
2^(s-1), slot 0 is R mod 2^s, less 2^s if at least 2^(s-1), and packing is
linear: for a pivot row P with head p and a row R with head f, slot 0 of
p R - f P is p f - f p = 0, so a shift drops the column exactly, and the
division by the previous pivot, exact in every slot, is exact on the whole
integer.  By Sylvester's identity every entry after k steps is a
(k + 1)-minor of the row-permuted input; by Hadamard's inequality it is at
most the product of the norms of the non-zero input rows (each at least
1), so at most 2^(e_1 + ... + e_m) for 2^e_i >= ||r_i||, and the width
s = 2 + sum_i e_i, or any wider one, reads every slot exactly.  The
remainder of w is sum_m w_m U_m on the free columns, of norm at most
(sum_m |w_m|) max_m ||U_m||: a subspace packs the U_m once, at the widest
width asked for yet, and both ``rank_modulo`` and ``pencil_ranks_modulo``
build each remainder packed, one multiply-add per non-zero coordinate.  A
pencil q r0 + p r1 is packed once, as its rows have norm at most |q| ||r0||
+ |p| ||r1||: one width, at the largest |p| and |q| (P and Q), reads every
parameter, each one multiply-add per row.  For remainders the bound is
(Q sum |r0| + P sum |r1|) max ||U_m||; ``pencil_eliminations`` packs
explicit rows (``polynomials.line_values``, its node determinants at (t, 1))."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

_ZERO = Fraction(0)
_INT_TYPE = {int}


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


def clear_denominators(v) -> tuple[list[int], int]:
    """(d * v as ints, d) for d the least common denominator of v."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def over_lcd(blocks) -> tuple[list[list[list[int]]], int]:
    """The matrices M / d of the blocks (M, d), rows M of ints or Fractions
    over d > 0, as integer rows over one denominator: L, the least common
    denominator of all their values.

    Clearing the entries' denominators puts them over some D; dividing by g,
    the gcd of D and every entry, leaves L = D / g.  D = L t with t dividing
    every entry, and the entries over L have gcd 1 with L: for each prime
    power p^a exactly dividing L some value has p^a in its denominator, and
    its entry over L is prime to p.  The rows returned are new lists.
    """
    cleared = []
    for rows, d in blocks:
        if not all(set(map(type, r)) <= _INT_TYPE for r in rows):
            s = lcm(*(x.denominator for r in rows for x in r))
            rows, d = [[x.numerator * (s // x.denominator) for x in r] for r in rows], d * s
        cleared.append((rows, d))
    den = lcm(*(d for _, d in cleared))
    g = 1 if den == 1 else gcd(den, *(gcd(*r) * (den // d) for rows, d in cleared for r in rows))
    return [[list(r) if den == d * g else [x * (den // d) // g for x in r] for r in rows]
            for rows, d in cleared], den // g


def over_pivots(rows, pivots) -> tuple[list, int]:
    """(B, L) for integer rows with positive entries p_r at their pivots:
    L the lcm of the p_r and B_r = (L / p_r) row_r, so that B_r / L is the
    RREF row row_r / p_r."""
    big = lcm(*(r[c] for r, c in zip(rows, pivots)))
    return [r if r[c] == big else [big // r[c] * x for x in r] for r, c in zip(rows, pivots)], big


def unit_vector(n: int, i: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


class Matrix:
    """A dense matrix over the rationals, the ``Fraction`` edge of the integer
    form: built from entries or from integer rows over a denominator, read
    through ``data``, and treated as immutable.  It has no arithmetic; its
    ``rref``, ``rank`` and ``det`` clear denominators and run the integer
    eliminations."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        self.data = [[rat(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else (cols or 0)
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def from_int_rows(cls, rows, den: int, cols: int) -> "Matrix":
        """The matrix of integer rows over a positive denominator."""
        m = cls.__new__(cls)
        m.data = [[Fraction(x, den) if x else _ZERO for x in row] for row in rows]
        m.rows, m.cols = len(m.data), cols
        return m

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

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form. Returns (rref matrix, rank, pivot columns)."""
        rows, pivots = _gauss_jordan([clear_denominators(row)[0] for row in self.data], self.cols)
        rows, den = over_pivots(rows, pivots)
        rows += [[0] * self.cols] * (self.rows - len(pivots))
        return Matrix.from_int_rows(rows, den, self.cols), len(pivots), pivots

    def rank(self) -> int:
        return _bareiss([clear_denominators(row)[0] for row in self.data])[0]

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


def det_int(rows) -> int:
    """Determinant of a square matrix of Python ints: the signed last pivot
    of ``_bareiss`` when every row takes a pivot, and 0 otherwise."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rank, last = _bareiss(rows)
    return last if rank == len(rows) else 0


def _bits(square: int) -> int:
    """An e >= 0 with 2^e >= sqrt(square), for a sum of squares >= 1."""
    return ((square - 1).bit_length() + 1) >> 1


def _pack(row, width: int) -> int:
    """The row as one integer sum_j row[j] 2^(width j), signed slots."""
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


def _bareiss(rows) -> tuple[int, int]:
    """(rank, signed last pivot) of integer rows, packed at the width
    2 + sum_i e_i, 2^e_i >= ||row_i|| (module docstring)."""
    width = 2 + sum([_bits(sum(map(mul, r, r))) for r in rows])
    return _eliminate([_pack(r, width) for r in rows], width)


def _eliminate(rows, width: int) -> tuple[int, int]:
    """(rank, signed last pivot) of packed rows whose minors are all at most
    2^(width - 2) in size, by fraction-free elimination (Bareiss, Math. Comp.
    22, 1968) on slot 0 (module docstring).

    Each step pops the first row P whose slot 0 (pivot p) is non-zero and
    replaces every other row R, slot 0 f, by (p R - f P) / prev shifted down
    one slot, prev the previous pivot; a row with f = 0 is just rescaled,
    and a slot 0 that is zero in every row drops without a pivot.  Zero rows
    drop, and each pivot adds one to the rank.  Popping a row from position
    k moves it past k rows, a sign (-1)^k; when every row of a square matrix
    takes a pivot, the last pivot times those signs is its determinant (1
    for no rows).
    """
    full = 1 << width
    mask, half = full - 1, full >> 1
    m = [r for r in rows if r]
    rank, prev, sign = 0, 1, 1
    while m:
        for k, p in enumerate(m):
            pivot = p & mask
            if pivot:
                break
        else:
            m = [r >> width for r in m]
            continue
        if k % 2:
            sign = -sign
        del m[k]
        if pivot >= half:
            pivot -= full
        rest = []
        for r in m:
            f = r & mask
            if f:
                if f >= half:
                    f -= full
                r = ((pivot * r - f * p) >> width) // prev
                if r:
                    rest.append(r)
            else:
                rest.append(r >> width if pivot == prev else (pivot * r >> width) // prev)
        m = rest
        prev = pivot
        rank += 1
    return rank, sign * prev


def pencil_eliminations(rows0, rows1, params: list) -> list[tuple[int, int]]:
    """(rank, signed last pivot) of the integer rows q r0 + p r1 for each
    (p, q) of params, as ``_bareiss`` gives them for the rows written out,
    packed once at the width 2 + sum_i e_i, 2^e_i >= Q ||r0_i|| + P ||r1_i||
    (module docstring)."""
    big_p = max((abs(p) for p, _ in params), default=0)
    big_q = max((abs(q) for _, q in params), default=0)
    width = 2
    for r0, r1 in zip(rows0, rows1, strict=True):
        s0, s1 = sum(map(mul, r0, r0)), sum(map(mul, r1, r1))
        bound = (big_q << _bits(s0) if s0 else 0) + (big_p << _bits(s1) if s1 else 0)
        width += (bound - 1).bit_length()
    packed0, packed1 = [_pack(r, width) for r in rows0], [_pack(r, width) for r in rows1]
    return [_eliminate([q * x + p * y for x, y in zip(packed0, packed1)], width) for p, q in params]


def _gauss_jordan(m: list, cols: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Gauss-Jordan over int pivoting on the first cols columns: (reduced
    rows, pivots).  Entries past column cols are carried along.

    An updated row is divided by the gcd of its entries, which keeps the
    entries small.  Each returned row is the primitive integer multiple,
    pivot positive, of a row of the RREF: unique exactly when the RREF is.
    The rows without a pivot are dropped.  The list m is reordered in place.
    """
    rows = len(m)
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
    out = []
    for row, c in zip(m, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append(tuple(row) if g == 1 else tuple([x // g for x in row]))
    return out, tuple(pivots)


def int_image_and_lifts(rows, n: int) -> tuple["Subspace", list[tuple[int, ...]]]:
    """The row space of the first n columns of integer rows [image | source]
    and the rows of one Gauss-Jordan pivoting on those columns only: for
    pivot c, row[:n] / row[c] is a row of the RREF basis and row[n:] / row[c]
    the same combination of the sources.  Relations among the images drop."""
    rows, pivots = _gauss_jordan(rows, n)
    heads = [(row[:n], gcd(*row[:n])) for row in rows]
    return Subspace(n, [tuple([x // g for x in h]) for h, g in heads], pivots), rows


def _int_row(r) -> list[int]:
    """r itself if its entries are ints (not bools), else its entries times
    their least common denominator."""
    if set(map(type, r)) <= _INT_TYPE:
        return r
    return clear_denominators(vec(r))[0]


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m x = 0} as a canonical subspace of k^cols."""
    return Subspace.from_rows(m.cols, m.data).annihilator()


class Subspace:
    """A linear subspace of k^n stored as its reduced row-space basis: each
    RREF row as its primitive integer multiple with a positive pivot.  Its
    ``scaled_rows``, ``basis`` and ``unit_remainders`` are cached
    properties, and both rank kernels read one packing of the unit
    remainders, kept at the widest width asked for (``_units_packed``)."""

    def __init__(self, ambient_dim: int, int_rows: list[tuple[int, ...]], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.int_rows = int_rows
        self.pivots = pivots

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        rows = [_int_row(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("basis vector length differs from ambient dimension")
        return cls(ambient_dim, *_gauss_jordan(rows, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        rows = [tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)]
        return cls(ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    @cached_property
    def basis(self) -> Matrix:
        """The RREF basis over Fraction, one row per dimension."""
        return Matrix.from_int_rows(*self.scaled_rows, self.ambient_dim)

    @cached_property
    def scaled_rows(self) -> tuple[list, int]:
        """``over_pivots`` of the rows."""
        return over_pivots(self.int_rows, self.pivots)

    def basis_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.basis.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.int_rows == other.int_rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(self.int_rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def remainder(self, w) -> list[int]:
        """L w - sum_r w[c_r] (L / p_r) row_r for an integer vector w, c_r and
        p_r the pivot and pivot entry of row r, L the lcm of the p_r (the
        cached ``scaled_rows``): linear, zero at every pivot, and zero
        exactly on the subspace."""
        rows, big = self.scaled_rows
        out = w if big == 1 else [big * x for x in w]
        for c, row in zip(self.pivots, rows):
            f = w[c]
            if f:
                out = [x - f * y for x, y in zip(out, row)]
        return out

    @cached_property
    def unit_remainders(self) -> tuple[tuple[int, ...], ...]:
        """The remainders of the unit vectors on the free columns: as
        remainder(w) = L w - sum_r w[c_r] B_r, (B, L) the ``scaled_rows``,
        -B_r at a pivot c_r and L in its own slot at a free one."""
        (rows, big), free = self.scaled_rows, self.free_columns
        units = {f: tuple(big * (g == f) for g in free) for f in free}
        units.update((c, tuple(-row[f] for f in free)) for c, row in zip(self.pivots, rows))
        return tuple(units[m] for m in range(self.ambient_dim))

    @cached_property
    def _packed(self) -> tuple[int, int, list[int]]:
        """(e with 2^e >= max ||U_m||, the widest width yet, the U_m packed at it)."""
        return _bits(max((sum(map(mul, u, u)) for u in self.unit_remainders), default=0)), 0, []

    def _units_packed(self, sums) -> tuple[int, list[int]]:
        """(width, the U_m packed at it) for one row per s of sums, its
        remainder of norm at most s max ||U_m||: the width 2 + sum_s (bits of
        s + e), or the wider one packed before (module docstring)."""
        bits, width, units = self._packed
        need = 2 + sum((s - 1).bit_length() + bits for s in sums)
        if need > width:
            self._packed = bits, width, units = bits, need, [_pack(u, need) for u in self.unit_remainders]
        return width, units

    @property
    def free_columns(self) -> list[int]:
        return [c for c in range(self.ambient_dim) if c not in self.pivots]

    def contains(self, v) -> bool:
        """v lies inside when its integer multiple has no remainder."""
        w = _int_row(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        return not any(self.remainder(w))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(any(self.remainder(row)) for row in other.int_rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        n = self.ambient_dim
        return Subspace(n, *_gauss_jordan(self.int_rows + other.int_rows, n))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def rank_modulo(self, rows) -> int:
        """dim (self + span of the integer rows) - dim self: the rank of the
        rows' remainders on the free columns (they vanish at the pivots),
        each built packed as sum_m w[m] U_m from the unit remainders U_m at
        the width of the row bound (sum_m |w[m]|) max ||U_m|| or wider."""
        rows = list(rows)
        width, units = self._units_packed([sum(map(abs, w)) for w in rows])
        return _eliminate([sum([x * u for x, u in zip(w, units) if x]) for w in rows], width)[0]

    def pencil_ranks_modulo(self, rows0, rows1, params) -> list[int]:
        """``rank_modulo`` of the rows q r0 + p r1 for each (p, q) of params:
        the remainder is linear, so those of r0 and r1, R0 and R1, are built
        packed once at the pencil's row bound (module docstring), and each
        parameter eliminates q R0 + p R1."""
        big_p = max((abs(p) for p, _ in params), default=0)
        big_q = max((abs(q) for _, q in params), default=0)
        width, units = self._units_packed([big_q * sum(map(abs, r0)) + big_p * sum(map(abs, r1))
                                           for r0, r1 in zip(rows0, rows1, strict=True)])
        packed0, packed1 = ([sum([x * u for x, u in zip(w, units) if x]) for w in rows] for rows in (rows0, rows1))
        return [_eliminate([q * x + p * y for x, y in zip(packed0, packed1)], width)[0] for p, q in params]

    def meet_dim(self, other: "Subspace") -> int:
        """dim of the intersection: dim other - the rank of other modulo self,
        as dim self + dim other - dim (self + other)."""
        self._check_ambient(other)
        return other.dim - self.rank_modulo(other.int_rows)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, in dual coordinates.

        An inclusion-reversing involution under the double-dual identification.
        One integer null vector per free column f: with s the lcm of the
        pivots of the rows that are non-zero at f, it is s at f and
        -(s / pivot) * row[f] at the pivot of each of those rows.
        """
        n = self.ambient_dim
        null = []
        for f in self.free_columns:
            involved = [(row, c) for row, c in zip(self.int_rows, self.pivots) if row[f]]
            scale = lcm(*(row[c] for row, c in involved))
            v = [0] * n
            v[f] = scale
            for row, c in involved:
                v[c] = -(scale // row[c]) * row[f]
            null.append(v)
        return Subspace(n, *_gauss_jordan(null, n))
