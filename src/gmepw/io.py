"""Structured-text documents: parsing and emission of every value the CLI
reads or writes.

Documents are JSON objects {"kind", "version", "payload"}.  Scalars are
strings "p/q" (or "p" for integers), matrices nested arrays, subspaces
{"ambient_dim", "basis"}.  Parsing canonicalizes subspace bases to RREF, so
emit(parse(x)) is the identity on canonical input.  Malformed input raises
DocumentError with a field path.

Reading and writing are integer-native.  ``parse_matrix`` reads each token
once, straight into integer rows over the lcm of the reduced denominators of
the entries: a JSON integer, a token of decimal digits with an optional
minus sign, and two such (the second unsigned and non-zero) around a slash
are read with ``int`` and reduced by one gcd, with no ``Fraction`` built;
any other token goes through ``Fraction(str)``, with the same caps and
messages.  A field path is formatted only for a rejected token.  A
Lagrangian basis goes to ``Subspace.from_rows`` as those rows, and GM data
to ``GMData.from_int_rows``, which keeps them as its integer view.  Both
document kinds are written from integer rows by ``format_int_row``: GM data
from its integer view, a subspace from its primitive RREF rows, each over
its pivot entry.  Each token x / den is reduced by gcd(x, den), which is the
text ``format_rat`` gives for that ``Fraction``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from math import gcd, lcm
from typing import Any

from .correspondence import A1_TAGS, LagrangianData, apply_frame
from .gm import GMData, GmError, classify
from .linalg import Subspace
from .polynomials import Poly

FORMAT_VERSION = "1"

# Fraction("1e999999999") builds a billion-digit integer: cap what one token
# may ask for before it reaches Fraction.
MAX_TOKEN_CHARS = 10_000
MAX_EXPONENT = 1_000
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")

KINDS = ("gm_data", "lagrangian_data", "certificate", "report")
# the commonest integer tokens, looked up with no conversion
_SMALL_INTS = {str(k): k for k in range(-9, 10)}


class DocumentError(ValueError):
    """Malformed document, with a best-effort field path in the message."""


class _Rejected(ValueError):
    """A rejected token; the message is a DocumentError's, less its field path."""


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Any
    version: str = FORMAT_VERSION


def format_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s, where: str = "scalar") -> Fraction:
    try:
        v = _scalar(s)
    except _Rejected as exc:
        raise DocumentError(f"{where}: {exc}") from None
    return Fraction(v) if type(v) is int else Fraction(*v)


def _scalar(s) -> int | tuple[int, int]:
    """The value of one token, as Fraction(s) reads it: an int when it is an
    integer, else its reduced pair (p, q) with q > 1.  Digits with an
    optional minus sign, alone or over unsigned digits with a non-zero value,
    are read by int (module docstring).  Raises _Rejected."""
    if isinstance(s, int) and not isinstance(s, bool):
        return int(s)
    if not isinstance(s, str):
        raise _Rejected(f"expected a rational string, got {s!r}")
    if len(s) > MAX_TOKEN_CHARS:
        raise _Rejected(f"rational of {len(s)} characters, more than {MAX_TOKEN_CHARS}")
    try:
        num, slash, den = s.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdecimal():
            if not slash:
                return int(num)
            if den.isdecimal():
                p, q = int(num), int(den)
                if q:  # a zero denominator is rejected by Fraction below
                    g = gcd(p, q)
                    return p // g if g == q else (p // g, q // g)
        exp = _EXPONENT.search(s)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond +-{MAX_EXPONENT}")
        v = Fraction(s)
        return v.numerator if v.denominator == 1 else (v.numerator, v.denominator)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Rejected(f"malformed rational {s!r} ({exc})") from None


def format_vector(v) -> list[str]:
    return [format_rat(x) for x in v]


def format_int_row(row, den: int) -> list[str]:
    """The tokens of the rational row row / den, for integers over a positive
    denominator: each x / den reduced by gcd(x, den) (module docstring)."""
    if den == 1:
        return list(map(str, row))
    return [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in row]


def parse_matrix(obj, where: str = "matrix", rows: int | None = None,
                 cols: int | None = None) -> tuple[list[list[int]], int]:
    """(M, m): the matrix is M / m for integer rows M and m the lcm of the
    reduced denominators of its entries (module docstring)."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DocumentError(f"{where}: expected a nested array")
    data, den = [], 1
    for i, r in enumerate(obj):
        try:
            data.append([_SMALL_INTS[x] for x in r])
            continue
        except (KeyError, TypeError):  # another token, or an unhashable one
            pass
        row = []
        for j, x in enumerate(r):
            try:
                v = _scalar(x)
            except _Rejected as exc:
                raise DocumentError(f"{where}[{i}][{j}]: {exc}") from None
            if type(v) is tuple:
                den = lcm(den, v[1])
            row.append(v)
        data.append(row)
    width = len(data[0]) if data else (cols or 0)
    if any(len(row) != width for row in data):
        raise DocumentError(f"{where}: ragged rows")
    if rows is not None and len(data) != rows:
        raise DocumentError(f"{where}: expected {rows} rows, found {len(data)}")
    if cols is not None and width != cols and data:
        raise DocumentError(f"{where}: expected {cols} columns, found {width}")
    if den > 1:
        data = [[x * den if type(x) is int else x[0] * (den // x[1]) for x in row] for row in data]
    return data, den


def format_subspace(s: Subspace) -> dict:
    # RREF row r is the primitive integer row over its pivot entry
    basis = [format_int_row(r, r[c]) for r, c in zip(s.int_rows, s.pivots)]
    return {"ambient_dim": s.ambient_dim, "basis": basis}


def parse_subspace(obj, where: str = "subspace") -> Subspace:
    if not isinstance(obj, dict) or "ambient_dim" not in obj or "basis" not in obj:
        raise DocumentError(f"{where}: expected ambient_dim and basis fields")
    n = obj["ambient_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DocumentError(f"{where}.ambient_dim: expected a non-negative integer")
    rows = parse_matrix(obj["basis"], f"{where}.basis")[0]
    if rows and len(rows[0]) != n:
        raise DocumentError(f"{where}.basis: rows of length {len(rows[0])} in ambient {n}")
    # non-RREF bases are accepted and canonicalized here; the common
    # denominator scales the rows and leaves their span
    return Subspace.from_rows(n, rows)


def format_gm_data(d: GMData) -> dict:
    cols, m = d.int_mu
    qs, den = d.int_q
    try:
        hint = classify(d)
    except GmError:  # a kernel row off the wedge identity: validate gives no type
        hint = None
    return {
        "n": d.n,
        "mu": [format_int_row(r, m) for r in zip(*cols)],
        "q": [[format_int_row(r, den) for r in g] for g in qs],
        "epsilon": format_rat(d.epsilon),
        "type_hint": hint,
    }


def parse_gm_data(obj, where: str = "gm_data") -> GMData:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object")
    for field in ("n", "mu", "q"):
        if field not in obj:
            raise DocumentError(f"{where}: missing field {field!r}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DocumentError(f"{where}.n: expected a non-negative integer")
    mu = parse_matrix(obj["mu"], f"{where}.mu", rows=10, cols=n + 5)
    qlist = obj["q"]
    if not isinstance(qlist, list) or len(qlist) != 6:
        raise DocumentError(f"{where}.q: expected six matrices")
    q = [parse_matrix(qm, f"{where}.q[{i}]", rows=n + 5, cols=n + 5) for i, qm in enumerate(qlist)]
    eps = parse_rat(obj.get("epsilon", "1"), f"{where}.epsilon")
    if eps == 0:
        raise DocumentError(f"{where}.epsilon: must be non-zero")
    try:
        return GMData.from_int_rows(n, mu, q, eps)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def format_lagrangian_data(ld: LagrangianData) -> dict:
    return {"A": format_subspace(ld.a), "A1": ld.a1}


def parse_lagrangian_data(obj, where: str = "lagrangian_data") -> LagrangianData:
    if not isinstance(obj, dict) or "A" not in obj:
        raise DocumentError(f"{where}: missing field 'A'")
    a = parse_subspace(obj["A"], f"{where}.A")
    tag = obj.get("A1", "0")
    if tag not in A1_TAGS:
        raise DocumentError(f"{where}.A1: expected one of {A1_TAGS}")
    if "frame" in obj:
        # the rows over their denominator: a positive multiple of the frame
        rows = parse_matrix(obj["frame"], f"{where}.frame", rows=6, cols=6)[0]
        try:
            a = apply_frame(a, rows)
        except ValueError as exc:
            raise DocumentError(f"{where}.frame: {exc}") from None
    try:
        return LagrangianData(a=a, a1=tag)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def format_poly(p: Poly) -> list[str]:
    return [format_rat(c) for c in p.coeffs]


def parse(text: str) -> Document:
    """Parse a document from its JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer beyond the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentError("top level: expected an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"top level: unknown kind {kind!r}")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"top level: unsupported version {version!r}")
    payload = obj.get("payload")
    if kind == "gm_data":
        return Document(kind, parse_gm_data(payload))
    if kind == "lagrangian_data":
        return Document(kind, parse_lagrangian_data(payload))
    # certificates and reports stay as plain dictionaries
    if not isinstance(payload, dict):
        raise DocumentError(f"{kind}: expected an object payload")
    return Document(kind, payload)


def emit(doc: Document) -> str:
    """Emit a document as canonical JSON text (sorted keys, newline-terminated)."""
    if doc.kind == "gm_data":
        payload = format_gm_data(doc.payload)
    elif doc.kind == "lagrangian_data":
        payload = format_lagrangian_data(doc.payload)
    elif doc.kind in KINDS:
        payload = doc.payload
    else:
        raise DocumentError(f"unknown kind {doc.kind!r}")
    out: list[str] = []
    _write_json({"kind": doc.kind, "version": doc.version, "payload": payload}, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(node, newline: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(node, indent=2, sort_keys=True)`` for
    a tree of dicts with string keys, lists and scalars, nested at the
    indent that ``newline`` ends with.  That call runs the pure-Python
    encoder; here a list of strings is one join over the C quoting."""
    if isinstance(node, str):
        out.append(_quote(node))
    elif isinstance(node, dict) and node:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(node):
            out.append(sep + _quote(key) + ": ")
            _write_json(node[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(node, (list, tuple)) and node:
        inner = newline + "  "
        if all(isinstance(x, str) for x in node):
            out.append("[" + inner + ("," + inner).join(map(_quote, node)) + newline + "]")
            return
        sep = "[" + inner
        for item in node:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:  # other scalars and empty containers
        out.append(json.dumps(node))
