"""Command-line front end.

Subcommands: build, verify, count, atlas, check-examples.  Each cmd_*
returns the body of its report; main adds the schema (mf-atlas/1) and
config header.  Reports are JSON or CSV, written atomically; identical
configurations (including the seed) produce byte-identical output.

Exit codes: 0 all checks passed, 1 verification failure, 2 invalid input.

Each subcommand imports its own layer when it runs (mf build the symbolic
system, mf atlas the flags, mf count the count), so each process loads just
the layers its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CertificationError, MFError, PreconditionError
from .lie import GElement, mixed_rep, nilpotent_rep, semisimple_rep, sl
from .scalar import _bounded_fraction, scalar_from_str, scalar_to_str

SCHEMA = "mf-atlas/1"
MAX_N = 4  # desk scale: sl_2 to sl_4


# -- element resolution ---------------------------------------------------------


def resolve_element(args: argparse.Namespace) -> GElement:
    if getattr(args, "matrix", None):
        if args.element is not None or args.param:
            raise PreconditionError("--matrix takes no --element or --param")
        try:
            with open(args.matrix) as f:
                # a bare number too long for a scalar gets the digit-bound
                # message before int() would refuse it with its own
                data = json.load(f, parse_int=lambda s: int(_bounded_fraction(s)))
            a = GElement.from_json_dict(data)
        except (OSError, ValueError, KeyError) as exc:
            raise PreconditionError(f"cannot read matrix file: {exc}") from exc
        if args.n is not None and a.algebra.n != args.n:
            raise PreconditionError(
                f"matrix file is sl_{a.algebra.n} but --n {args.n} was given"
            )
        _check_n(a.algebra.n)
        return a
    n = args.n if args.n is not None else 3
    _check_n(n)
    L = sl(n)
    try:
        params = [scalar_from_str(p) for p in (args.param or [])]
    except ValueError as exc:
        raise PreconditionError(f"bad --param value: {exc}") from exc
    label = args.element or "s"
    if label == "s":
        return semisimple_rep(L, params)
    if label == "n":
        if params:
            raise PreconditionError("element n takes no parameters")
        return nilpotent_rep(L)
    if label == "r":
        return mixed_rep(L, params)
    raise PreconditionError(f"unknown element label {label!r}")


def _check_n(n: int) -> None:
    if n < 2:
        raise PreconditionError("n must be at least 2")
    if n > MAX_N:
        raise PreconditionError(f"n must be at most {MAX_N}")


def _config_dict(args: argparse.Namespace) -> dict:
    cfg: dict = {"command": args.command}
    for key in ("n", "element", "param", "matrix", "seed", "samples", "iprime"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


# -- report assembly ---------------------------------------------------------------


def _check_rows(results) -> list[dict]:
    return [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]


def cmd_build(args: argparse.Namespace) -> tuple[dict, bool]:
    from .mfsystem import build_system

    a = resolve_element(args)
    sys_ = build_system(a)
    texts = [str(c) for c in sys_.components]
    # a component at display scale 1 is printed as it is, so its text is reused
    printed = [t if p is c else str(p)
               for t, c, p in zip(texts, sys_.components, sys_.scaled_components())]
    return {
        "n": sys_.algebra.n,
        "b": sys_.b,
        "degrees": sys_.degrees,
        "shift": a.to_json_dict(),
        "coordinates": list(sys_.algebra.coord_names),
        "labels": [list(lbl) for lbl in sys_.labels],
        "components": texts,
        "display_scale": [scalar_to_str(s) for s in sys_.display_scale],
        "printed_components": printed,
        "certificate_point": sys_.certificate_point.to_json_dict(),
    }, True


def cmd_verify(args: argparse.Namespace) -> tuple[dict, bool]:
    from .mfsystem import build_system
    from .verify import run_verify_suite

    a = resolve_element(args)
    sys_ = build_system(a)
    samples = args.samples if args.samples is not None else 25
    results = run_verify_suite(sys_, samples=samples, seed=args.seed)
    ok = all(r.passed for r in results)
    return {
        "n": sys_.algebra.n,
        "shift": a.to_json_dict(),
        "checks": _check_rows(results),
        "passed": ok,
    }, ok


def cmd_count(args: argparse.Namespace) -> tuple[dict, bool]:
    from .count import count_zero_fibre, load_iprime

    a = resolve_element(args)
    overrides = load_iprime(args.iprime) if args.iprime else None
    return {"shift": a.to_json_dict(), **count_zero_fibre(a, overrides)}, True


def _member_row(m) -> dict:
    from .flags import mask_strings, member_label

    mask = mask_strings(m.mask())
    return {
        "label": member_label(m, mask),
        "kind": "borel" if m.is_borel() else "parabolic",
        "composition": list(m.blocks),
        "mask": mask,
        "dim_p": m.dim_p,
        "dim_u": m.dim_u,
    }


def cmd_atlas(args: argparse.Namespace) -> tuple[dict, bool]:
    from .flags import enumerate_atlas, mask_strings, support_mask

    a = resolve_element(args)
    L = a.algebra
    atlas = enumerate_atlas(a)
    return {
        "n": L.n,
        "shift": a.to_json_dict(),
        "borel_count": len(atlas.borels),
        "parabolic_count": len(atlas.parabolics),
        "borels": [_member_row(m) for m in atlas.borels],
        "parabolics": [_member_row(m) for m in atlas.parabolics],
        "b_a": {
            "dim": len(atlas.b_a),
            "mask": mask_strings(support_mask(L, atlas.b_a)),
        },
        "u_a": {
            "dim": len(atlas.u_a),
            "mask": mask_strings(support_mask(L, atlas.u_a)),
        },
    }, True


def cmd_check_examples(args: argparse.Namespace) -> tuple[dict, bool]:
    from .corpus import run_corpus

    results = run_corpus(self_test=args.self_test)
    ok = all(r.passed for r in results)
    report = {
        "self_test": bool(args.self_test),
        "checks": _check_rows(results),
        "passed": ok,
    }
    if not ok:
        first = next(r for r in results if not r.passed)
        print(f"first mismatch: {first.name}: {first.detail}", file=sys.stderr)
    return report, ok


# -- output ------------------------------------------------------------------------


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "checks" in report:
        writer.writerow(["name", "passed", "detail"])
        for row in report["checks"]:
            writer.writerow([row["name"], row["passed"], row["detail"]])
    else:
        writer.writerow(["key", "value"])
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        for key, val in rows:
            writer.writerow([key, val])
    return buf.getvalue()


def write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mf-report-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- argument parsing ------------------------------------------------------------------


def _add_element_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="algebra size (sl_n), default 3")
    p.add_argument(
        "--element",
        choices=("s", "r", "n"),
        default=None,
        help="shift representative: s semisimple, r mixed (sl_3), n nilpotent",
    )
    p.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="RATIONAL",
        help="element parameter (repeatable); rationals like 3/2 or Gaussian a+b*i",
    )
    p.add_argument("--matrix", default=None, metavar="FILE",
                   help="JSON file with an explicit traceless matrix")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--samples", type=int, default=None, help="sample count (read by mf verify only)")
    p.add_argument("--out", default=None, metavar="FILE", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")


SUBCOMMANDS = {
    "build": "build F_a and print its descriptor",
    "verify": "run the named verification suite",
    "count": "evaluate the recursive zero-fibre count",
    "atlas": "enumerate Borels and parabolics containing a",
    "check-examples": "run the frozen regression corpus",
}


def _handlers() -> dict:
    """Each subcommand's cmd_* function, looked up in the module globals when
    main runs, so a rebound global (a tracer's wrapper) is the one called."""
    return {"build": cmd_build, "verify": cmd_verify, "count": cmd_count,
            "atlas": cmd_atlas, "check-examples": cmd_check_examples}


def _add_options(name: str, p: argparse.ArgumentParser) -> None:
    if name != "check-examples":
        _add_element_flags(p)
    _add_common_flags(p)
    if name == "count":
        p.add_argument("--iprime", default=None, metavar="FILE",
                       help="JSON table of exotic-component counts")
    if name == "check-examples":
        p.add_argument("--self-test", action="store_true", dest="self_test",
                       help="also run the tamper self-test harness")


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The mf parser.  Every subcommand is listed with its help, but a run
    parses one, so only `command` gets its options (all do when None)."""
    parser = argparse.ArgumentParser(
        prog="mf",
        description="Exact construction and verification of Mishchenko-Fomenko "
        "systems on sl_n at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_options(name, p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = make_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.samples is not None and args.samples < 1:
            raise PreconditionError("--samples must be at least 1")
        body, ok = _handlers()[args.command](args)
        report = {"schema": SCHEMA, "config": _config_dict(args), **body}
    except PreconditionError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, MFError) as exc:
        print(f"error: verification failure: {exc}", file=sys.stderr)
        return 1
    try:
        write_output(render_report(report, args.format), args.out)
    except OSError as exc:
        print(f"error: invalid input: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
