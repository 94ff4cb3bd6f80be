"""Command-line surface: every construction as a subcommand over structured
text documents on standard streams or files.

One table, ``COMMANDS``, holds each command's handler, help and arguments;
the help listing, the usage line and the dispatch all read it.

The parser is built once per process, at the first command line, and reused
by every later ``main`` call.  Reuse leaves no trace between calls: argparse
reads ``COLUMNS`` when it formats a usage or help text, not when it builds
the parser; each ``parse_args`` fills a fresh namespace from the defaults and
copies the lists of ``append`` flags; and the dispatch looks the handler up
in ``COMMANDS`` at call time.

Exit codes: 0 success, 1 mathematical violation, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from fractions import Fraction
from io import StringIO
from typing import Callable, NamedTuple

from . import io as gio
from .correspondence import (
    A1_ONE,
    A1_ZERO,
    CorrespondenceError,
    LagrangianData,
    dim_report,
    dualize,
    gm_to_lagrangian,
    hyperplane_section_lagrangian,
    lagrangian_to_gm,
)
from .epw import stratum_poly_on_line, y_dual_stratum, y_stratum, z_stratum
from .exterior import inject
from .fibrations import fibration1_fiber, fibration2_fiber, sigma1_level, sigma2_level
from .fixtures import all_gm_fixtures, all_lagrangian_fixtures
from .gm import GmError, discriminant_on_line, hull_point_sample, opposite, validate
from .io import Document, DocumentError
from .linalg import Subspace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _parse_scalar_list(text: str, where: str) -> list[Fraction]:
    return [gio.parse_rat(tok.strip(), f"{where} position {i}") for i, tok in enumerate(text.split(","))]


def _parse_point6(text: str, where: str = "--point") -> list[Fraction]:
    v = _parse_scalar_list(text, where)
    if len(v) != 6:
        raise DocumentError(f"{where}: expected 6 coordinates, got {len(v)}")
    return v


def _parse_nonzero_point(text: str, where: str = "--point") -> list[Fraction]:
    v = _parse_point6(text, where)
    if not any(v):
        raise DocumentError(f"{where}: must be non-zero")
    return v


def _parse_v5_point(text: str) -> list[Fraction]:
    v = _parse_nonzero_point(text)
    if v[5]:
        raise DocumentError("--point: must lie in the hyperplane (last coordinate 0)")
    return v


def _parse_plane(text: str) -> tuple[list[list[Fraction]], Subspace]:
    """The 3 vectors u1;u2;u3 of --plane as typed, and their span, which must
    be a 3-space."""
    parts = text.split(";")
    if len(parts) != 3:
        raise DocumentError(f"--plane: expected 3 vectors u1;u2;u3, got {len(parts)}")
    rows = [_parse_point6(part, "--plane") for part in parts]
    s = Subspace.from_rows(6, rows)
    if s.dim != 3:
        raise DocumentError(f"--plane: vectors span dimension {s.dim}, expected 3")
    return rows, s


def _parse_v5_plane(text: str) -> Subspace:
    _, plane = _parse_plane(text)
    if any(row[5] for row in plane.int_rows):
        raise DocumentError("--plane: the 3-space must lie in the hyperplane (last coordinates 0)")
    return plane


def _read_document(args, expected_kind: str):
    if args.input and args.input != "-":
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    doc = gio.parse(text)
    if doc.kind != expected_kind:
        raise DocumentError(f"expected a {expected_kind} document, found {doc.kind}")
    return doc.payload


def _write(args, text: str) -> None:
    if getattr(args, "output", None) and args.output != "-":
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, payload: dict) -> None:
    _write(args, gio.emit(Document("report", payload)))


def cmd_validate(args) -> int:
    d = _read_document(args, "gm_data")
    rep = validate(d)
    payload = {"ok": rep.ok, "type": rep.gm_type, "message": rep.message}
    if rep.witness is not None:
        payload["witness"] = list(rep.witness)
    _emit_report(args, payload)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_to_lagrangian(args) -> int:
    d = _read_document(args, "gm_data")
    ld = gm_to_lagrangian(d)
    _write(args, gio.emit(Document("lagrangian_data", ld)))
    return EXIT_OK


def cmd_from_lagrangian(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    if args.a1 is not None:
        ld = LagrangianData(a=ld.a, a1=A1_ONE if args.a1 == "1" else A1_ZERO)
    d = lagrangian_to_gm(ld)
    if d.n < 0:
        raise CorrespondenceError(f"no GM variety: the dimension formula gives n = {d.n} < 0")
    _write(args, gio.emit(Document("gm_data", d)))
    return EXIT_OK


def cmd_dualize(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    _write(args, gio.emit(Document("lagrangian_data", dualize(ld))))
    return EXIT_OK


def cmd_dim_report(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    rep = dim_report(ld)
    _emit_report(
        args,
        {
            "dim_a_cap_l3v5": rep.dim_a_cap_l3v5,
            "predicted_dim_x": rep.predicted_dim_x,
            "type": rep.gm_type,
            "degenerate": rep.degenerate,
        },
    )
    return EXIT_OK


def cmd_epw_point(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    v = _parse_nonzero_point(args.point)
    _emit_report(args, {"point": gio.format_vector(v), "y_stratum": y_stratum(ld.a, v)})
    return EXIT_OK


def cmd_epw_dual_point(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    f = _parse_nonzero_point(args.covector, "--covector")
    v5 = Subspace.from_rows(6, [f]).annihilator()
    _emit_report(
        args,
        {"covector": gio.format_vector(f), "y_dual_stratum": y_dual_stratum(ld.a, v5)},
    )
    return EXIT_OK


def _parse_line(args) -> tuple[list[Fraction], list[Fraction]]:
    """--base and --dir of a line, which must be independent."""
    base = _parse_point6(args.base, "--base")
    direction = _parse_point6(args.dir, "--dir")
    if Subspace.from_rows(6, [base, direction]).dim < 2:
        raise DocumentError("--base and --dir are dependent: the line degenerates")
    return base, direction


def cmd_epw_line(args) -> int:
    flag, other = ("base", "plane") if args.kind == "y" else ("plane", "base")
    if getattr(args, flag) is None:
        raise DocumentError(f"--{flag} is required with --kind {args.kind}")
    if getattr(args, other) is not None:
        raise DocumentError(f"--{other} does not go with --kind {args.kind}: give --{flag} only")
    ld = _read_document(args, "lagrangian_data")
    if args.kind == "y":
        base, direction = _parse_line(args)
        cert = stratum_poly_on_line(ld.a, base, direction, "y", seed=args.seed)
        base_out = [gio.format_vector(cert.base)]
    else:
        rows, plane = _parse_plane(args.plane)
        direction = _parse_point6(args.dir, "--dir")
        if plane.contains(direction):
            raise DocumentError("--dir lies in the --plane span: the pencil is constant")
        cert = stratum_poly_on_line(ld.a, tuple(rows), direction, "z", seed=args.seed)
        base_out = [gio.format_vector(u) for u in cert.base]
    payload = {
        "kind": cert.kind,
        "line": {"base": base_out, "direction": gio.format_vector(cert.direction)},
        "poly": gio.format_poly(cert.poly),
        "degree": cert.degree,
        "checked_points": cert.sample_consistency,
        "contains_line": cert.contains_line,
    }
    _write(args, gio.emit(Document("certificate", payload)))
    return EXIT_OK


def cmd_zeta_plane(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    _, plane = _parse_plane(args.plane)
    _emit_report(
        args,
        {
            "plane": gio.format_subspace(plane)["basis"],
            "z_stratum": z_stratum(ld.a, plane.int_rows),
        },
    )
    return EXIT_OK


def cmd_disc_line(args) -> int:
    d = _read_document(args, "gm_data")
    base, direction = _parse_line(args)
    if not (base[5] or direction[5]):
        raise DocumentError("--base and --dir: the line lies inside the hyperplane")
    line = discriminant_on_line(d, base, direction)
    payload = {
        "det_poly": gio.format_poly(line.det_poly),
        "plucker_mult": line.plucker_mult,
        "dis_poly": gio.format_poly(line.dis_poly) if line.dis_poly is not None else None,
        "dis_is_everything": line.dis_is_everything,
        "mult_exceeds_expected": line.mult_exceeds_expected,
    }
    _emit_report(args, payload)
    return EXIT_OK


def _fiber_csv(args, queries, parse, fiber) -> int:
    """One CSV row of the fiber report per query, with \\r\\n row endings."""
    ld = _read_document(args, "lagrangian_data")
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["query", "sigma_level", "stratum", "ambient_proj_dim", "corank", "agreement"])
    for q in queries:
        r = fiber(ld, parse(q))
        writer.writerow([q, r.sigma_level, r.stratum_prediction, r.ambient_proj_dim, r.corank, r.agreement])
    _write(args, out.getvalue())
    return EXIT_OK


def cmd_fib1(args) -> int:
    return _fiber_csv(args, args.point, _parse_v5_point, fibration1_fiber)


def cmd_fib2(args) -> int:
    return _fiber_csv(args, args.plane, _parse_v5_plane, fibration2_fiber)


def cmd_hull_sample(args) -> int:
    d = _read_document(args, "gm_data")
    w = hull_point_sample(d, args.seed)
    _emit_report(args, {"seed": args.seed, "point": gio.format_vector(w)})
    return EXIT_OK


def cmd_opposite(args) -> int:
    d = _read_document(args, "gm_data")
    _write(args, gio.emit(Document("gm_data", opposite(d))))
    return EXIT_OK


def cmd_hyperplane_update(args) -> int:
    ld = _read_document(args, "lagrangian_data")
    coords = _parse_scalar_list(args.eta0, "--eta0")
    if len(coords) != 10:
        raise DocumentError("--eta0: expected 10 coordinates over the 3-form monomials of the hyperplane")
    if not any(coords):
        raise DocumentError("--eta0: must be non-zero")
    a2 = hyperplane_section_lagrangian(ld.a, inject(3, coords))
    _write(args, gio.emit(Document("lagrangian_data", LagrangianData(a=a2, a1=ld.a1))))
    return EXIT_OK


def cmd_sigma(args) -> int:
    if args.point is None and args.plane is None:
        raise DocumentError("one of --point or --plane is required")
    if args.point is not None and args.plane is not None:
        raise DocumentError("give one of --point or --plane, not both")
    ld = _read_document(args, "lagrangian_data")
    if args.point is not None:
        level = sigma1_level(ld, _parse_v5_point(args.point))
        _emit_report(args, {"point": args.point, "sigma1_level": level})
    else:
        level = sigma2_level(ld, _parse_v5_plane(args.plane))
        _emit_report(args, {"plane": args.plane, "sigma2_level": level})
    return EXIT_OK


def cmd_fixture(args) -> int:
    gm = all_gm_fixtures()
    lag = all_lagrangian_fixtures()
    if args.list:
        listing = [f"{n} (gm_data)\n" for n in gm] + [f"{n} (lagrangian_data)\n" for n in lag]
        _write(args, "".join(listing))
        return EXIT_OK
    name = args.name
    if args.lagrangian:
        if name not in lag:
            raise DocumentError(f"unknown Lagrangian fixture {name!r}")
        _write(args, gio.emit(Document("lagrangian_data", lag[name])))
    else:
        if name not in gm:
            raise DocumentError(f"unknown fixture {name!r}")
        _write(args, gio.emit(Document("gm_data", gm[name])))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    out = StringIO()
    results = run_selftest(out)
    passed = sum(results)
    print(f"{passed}/{len(results)} checks passed", file=out)
    _write(args, out.getvalue())
    return EXIT_OK if passed == len(results) else EXIT_VIOLATION


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    args: tuple = ()  # (flags, keywords) of each argument beyond --input and --output


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


# every command, in the order of the help listing
COMMANDS = {
    "validate": Command(cmd_validate, "check gm_data identities and classify"),
    "to-lagrangian": Command(cmd_to_lagrangian, "gm_data -> lagrangian_data"),
    "from-lagrangian": Command(cmd_from_lagrangian, "lagrangian_data -> gm_data", (
        _arg("--a1", choices=["0", "1"], default=None, help="override the odd tag"),)),
    "dualize": Command(cmd_dualize, "orthogonal Lagrangian in dual coordinates"),
    "dim-report": Command(cmd_dim_report, "expected dimension from lagrangian_data"),
    "epw-point": Command(cmd_epw_point, "point stratum level", (
        _arg("--point", required=True, help="6 comma-separated rationals"),)),
    "epw-dual-point": Command(cmd_epw_dual_point, "hyperplane stratum level", (
        _arg("--covector", required=True, help="6 comma-separated rationals cutting the hyperplane"),)),
    "epw-line": Command(cmd_epw_line, "degree certificate along a line or pencil", (
        _arg("--kind", choices=["y", "z"], default="y"),
        _arg("--base", help="line base point (kind y)"),
        _arg("--plane", help="3 base vectors u1;u2;u3 (kind z)"),
        _arg("--dir", required=True, help="direction vector"),
        _arg("--seed", type=int, default=0, help="seeds the 20 sample checks"))),
    "zeta-plane": Command(cmd_zeta_plane, "quartic stratum level of a 3-space", (
        _arg("--plane", required=True, help="3 vectors u1;u2;u3"),)),
    "disc-line": Command(cmd_disc_line, "discriminant polynomial along a line", (
        _arg("--base", required=True), _arg("--dir", required=True))),
    "fib1": Command(cmd_fib1, "first fibration fiber report (CSV)", (
        _arg("--point", action="append", required=True, help="repeatable; 6 rationals"),)),
    "fib2": Command(cmd_fib2, "second fibration fiber report (CSV)", (
        _arg("--plane", action="append", required=True, help="repeatable; u1;u2;u3"),)),
    "hull-sample": Command(cmd_hull_sample, "rational point on the Grassmannian hull", (
        _arg("--seed", type=int, default=0),)),
    "opposite": Command(cmd_opposite, "swap ordinary and special data"),
    "hyperplane-update": Command(cmd_hyperplane_update, "Lagrangian of a hyperplane section", (
        _arg("--eta0", required=True, help="10 rationals over hyperplane 3-form monomials"),)),
    "sigma": Command(cmd_sigma, "exceptional-locus levels", (
        _arg("--point", help="6 rationals (first fibration)"),
        _arg("--plane", help="u1;u2;u3 (second fibration)"))),
    "fixture": Command(cmd_fixture, "emit a built-in fixture document", (
        _arg("name", nargs="?", default="fivefold"),
        _arg("--lagrangian", action="store_true", help="emit the Lagrangian form"),
        _arg("--list", action="store_true", help="list fixture names"))),
    "selftest": Command(cmd_selftest, "run the built-in invariant suite"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser with the subparser of every command, built once per process
    and shared by every caller, who must not change it."""
    parser = argparse.ArgumentParser(
        prog="gmepw",
        description="Exact computations relating Gushel-Mukai data, Lagrangian data, "
        "EPW stratifications, and quadric fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--input", "-i", default="-", help="input document path (default stdin)")
        p.add_argument("--output", "-o", default="-", help="output path (default stdout)")
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command].run(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GmError, CorrespondenceError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
