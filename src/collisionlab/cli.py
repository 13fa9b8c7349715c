"""Command-line front end.

Layout of every subcommand: data on stdout (or --out), diagnostics and the
resolved-configuration echo on stderr, so stdout is byte-identical across
reruns and worker counts.  A run's config is its flags as parsed, less
--json and the flags left unset, and the echo is that config, written before
the subcommand computes.  Each subparser's call names what it prints: one
compact JSON document with a version field, printed by _cmd_doc, or one
compact JSON line per row, written by _cmd_lines to stdout or --out.  Run
defaults live in CertificateConfig and GridConfig: certify and lemma nmax31
pass on only the flags given and echo the resolved dataclass, and each
key=value line of a certify --config file is parsed as the flag --key=value by
the same parser.

Exit codes: 0 success or certified HOLDS, 1 certified FAILS or certificate
failure, 2 usage error (argparse), 3 capability or runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import time
from typing import Optional

from . import __version__, bounds, certificate, collision, lemma, sieve
from .collision import ParamTuple
from .intervals import FAILS, IntervalValue

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _echo(args, resolved: dict) -> None:
    subcommand = " ".join(value for key, value in vars(args).items() if key.endswith("command"))
    line = f"collisionlab {__version__} {subcommand} " + json.dumps(
        resolved, separators=(",", ":"), sort_keys=True, default=str, allow_nan=False
    )
    print(line, file=sys.stderr)


def _finite_float(text: str) -> float:
    """The argparse type of a float flag: nan and the infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _echo_config(args) -> dict:
    """The run's config, its flags in parser order less --json and unset ones, echoed."""
    config = {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in ("func", "call", "check", "json") and not key.endswith("command")
    }
    _echo(args, config)
    return config


def _json_doc(config: dict, body: dict) -> str:
    doc: dict = {"version": __version__, "config": config}
    doc.update(body)
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _cmd_doc(args) -> int:
    """Echo the config, then print one JSON document with the body that args.call builds."""
    cfg = _echo_config(args)
    print(_json_doc(cfg, args.call(args)))
    return EXIT_OK


def _cmd_lines(args) -> int:
    """Echo the config, then write each row of args.call as one compact JSON line.

    The rows go to --out if it is given, else to stdout.  args.call checks
    its flags before it returns, so a refused run leaves --out as it was.
    """
    _echo_config(args)
    rows = args.call(args)
    with (open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)) as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return EXIT_OK


def _iv_pair(iv) -> list[float]:
    return [iv.lo, iv.hi]


def _fields(result, *drop: str) -> dict:
    """A result dataclass as output: its fields in order, less drop, each interval as [lo, hi]."""
    return {
        f.name: _iv_pair(value) if isinstance(value := getattr(result, f.name), IntervalValue) else value
        for f in dataclasses.fields(result)
        if f.name not in drop
    }


# ---------------------------------------------------------------------------
# collision subcommands

def _search_rows(args):
    # the outermost iterable is evaluated here, so max_value is checked at the call
    return (
        {"N": str(record.N), "reps": [[r.x, r.a] for r in record.reps]}
        for record in collision.enumerate_collisions(args.max_value)
    )


def _fib_rows(args):
    # Exact verification of member i multiplies ~10^(4.8 * phi^(2i)) digit
    # numbers; i = 6 is the last one that finishes in interactive time.
    if args.count < 1:
        raise ValueError(f"fib-family: count must be >= 1, got {args.count}")
    if args.count > 7:
        raise ValueError(
            "fib-family: members beyond i = 6 are too large to verify exactly here; "
            "use collision.fib_identity directly if you want to wait"
        )
    return ({"i": i, **_fields(collision.fib_identity(i))} for i in range(args.count))


def _param_doc(args) -> dict:
    t = collision.to_param(args.x, args.a, args.y, args.b)
    return {
        "tuple": {"delta": t.delta, "n": t.n, "m": t.m, "k": t.k, "l": t.l},
        "k0": t.k0,
        "m0": t.m0,
        "hypotheses": t.hypotheses(),
        "eq12": collision.check_eq12(t),
    }


# ---------------------------------------------------------------------------
# bounds subcommands

def _stirling_doc(args) -> dict:
    lower, upper, f_val = bounds.stirling_log_bounds(args.nu, precise=args.precise)
    return {"log_g_lower": _iv_pair(lower), "log_g_upper": _iv_pair(upper), "f": _iv_pair(f_val)}


# ---------------------------------------------------------------------------
# lemma subcommands

def _cmd_lemma_report(args) -> int:
    """Run the checker that set_defaults chose on the flags; one LemmaReport as text or JSON."""
    cfg = _echo_config(args)
    if "delta" in cfg:  # a tuple checker: the five tuple flags make its ParamTuple
        extra = {key: value for key, value in cfg.items() if key not in ("delta", "n", "m", "k", "l")}
        report = args.check(ParamTuple(args.delta, args.n, args.m, args.k, args.l), **extra)
    else:
        report = args.check(**cfg)
    if args.json:
        body = {
            "lemma": report.lemma,
            "hypotheses": report.hypotheses,
            "lhs": _iv_pair(report.lhs),
            "rhs": _iv_pair(report.rhs),
            "verdict": report.verdict.state,
            "notes": report.notes,
        }
        print(_json_doc(cfg, {"report": body}))
    else:
        print(report.to_text())
    return EXIT_FAILS if report.verdict.state == FAILS else EXIT_OK


def _cmd_lemma_nmax31(args) -> int:
    grid = lemma.GridConfig(**_given(args, lemma.GridConfig))
    cfg = dataclasses.asdict(grid)
    _echo(args, cfg)
    print(_json_doc(cfg, _fields(lemma.nmax_lemma31(grid), "pi_mode")))  # already in the config
    return EXIT_OK


def _cmd_lemma_section4(args) -> int:
    """The section4 checker's report on a full tuple, or the --k document."""
    tuple_flags = [args.delta, args.n, args.m, args.l]
    if any(v is not None for v in tuple_flags):
        if any(v is None for v in tuple_flags):
            raise ValueError("lemma section4: give all of --delta --n --m --k --l, or --k alone")
        return _cmd_lemma_report(args)
    return _cmd_doc(args)


def _cmd_lemma_section5(args) -> int:
    cfg = _echo_config(args)
    rep = lemma.section5_check(args.n, args.c)
    if args.json:
        body = {
            "c_star": rep.thresholds.c_star,
            "l0": rep.l0,
            "lhs": _iv_pair(rep.lhs),
            "rhs": _iv_pair(rep.rhs),
            "verdict": rep.verdict.state,
            "margin": rep.verdict.margin,
        }
        print(_json_doc(cfg, body))
    else:
        print(f"section5: {rep.verdict.state} (margin {rep.verdict.margin:.6g})")
        print(f"  l0 = {rep.l0!r}")
        print(f"  lhs in [{rep.lhs.lo!r}, {rep.lhs.hi!r}]")
        print(f"  rhs in [{rep.rhs.lo!r}, {rep.rhs.hi!r}]")
    return EXIT_FAILS if rep.verdict.state == FAILS else EXIT_OK


# ---------------------------------------------------------------------------
# sieve subcommands

def _neighbors_doc(args) -> dict:
    prev_p, next_p = sieve.prime_neighbors(args.x)
    return {"prev": prev_p, "next": next_p, "gap": next_p - prev_p}


# ---------------------------------------------------------------------------
# certify

def _parse_windows(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "1-5,10-12" into ((1, 5), (10, 12))."""
    windows = []
    for part in text.split(","):
        piece = part.strip()
        if not piece:
            continue
        a, sep, b = piece.partition("-")
        if not sep:
            raise ValueError(f"certify: malformed window {piece!r}, expected A-B")
        windows.append((int(a), int(b)))
    if not windows:
        raise ValueError("certify: empty window list")
    return tuple(windows)


def _certify_values() -> argparse.ArgumentParser:
    """The certify flags a --config file may set, each kept under its field only if given."""
    p = _Parser(add_help=False, argument_default=argparse.SUPPRESS, exit_on_error=False)
    p.add_argument("--qmax", type=int, dest="q_max")
    p.add_argument("--gap-min", type=int)
    p.add_argument("--windows")
    p.add_argument("--smooth-bound", type=int)
    p.add_argument("--gap-cap", type=int)
    p.add_argument("--window-len", type=int)
    p.add_argument("--segment-size", type=int)
    p.add_argument("--threads", type=int, dest="workers")
    return p


def _read_config_file(path: str) -> dict:
    """key=value lines, each parsed as the flag --key=value; blank lines and # comments ignored."""
    lines = []  # (flag, key)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip()
            lines.append((f"--{key.replace('_', '-')}={value.strip()}", key))
    try:
        values, extra = _certify_values().parse_known_args([flag for flag, _ in lines])
    except argparse.ArgumentError as exc:
        raise ValueError(f"{path}: {exc}") from None
    unknown = sorted({key for flag, key in lines if flag in extra or "-" in key})  # gap-min is no key
    if unknown:
        raise ValueError(f"certify: unknown config keys: {', '.join(unknown)}")
    return vars(values)


def _given(args, cls) -> dict:
    """The flags the user gave that name fields of the dataclass cls."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def _cmd_certify(args) -> int:
    """Defaults from CertificateConfig, then the config file, then explicit flags."""
    given = _read_config_file(args.config) if args.config else {}
    given |= _given(args, certificate.CertificateConfig)
    if "windows" in given:
        given["windows"] = _parse_windows(given["windows"])
    config = certificate.CertificateConfig(**given)
    _echo(args, dataclasses.asdict(config))

    uncovered = certificate.coverage_check(config.gap_cap, config.window_len, config.windows)
    if uncovered:
        fields = config.output_fields()
        cfg = {key: fields[key] for key in ("gap_cap", "window_len", "windows")}
        print(_json_doc(cfg, {"coverage_ok": False, "uncovered_placements": uncovered}))
        return EXIT_FAILS

    started = time.monotonic()
    report = certificate.run(config, stop_after_segments=args.stop_after)
    print(report.to_json(version=__version__))
    if args.timing:
        print(f"certify: {time.monotonic() - started:.1f}s wall", file=sys.stderr)
    return EXIT_FAILS if report.failures or report.gap_cap_violations else EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_tuple_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--delta", type=int, required=required)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--m", type=int, required=required)
    p.add_argument("--k", type=int, required=required)
    p.add_argument("--l", type=int, required=required)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with option abbreviation off (typos must exit 2, not run)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collisionlab",
        description="Verification laboratory for binomial-coefficient collisions.",
    )
    parser.add_argument("--version", action="version", version=f"collisionlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="enumerate all collisions up to a value bound")
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lines, call=_search_rows)

    p = sub.add_parser("fib-family", help="members of the infinite collision family")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lines, call=_fib_rows)

    p = sub.add_parser("param", help="parametrize a collision pair C(x,a) = C(y,b)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_doc, call=_param_doc)

    p = sub.add_parser("bounds", help="certified analytic bounds")
    bsub = p.add_subparsers(dest="bounds_command", required=True)

    b = bsub.add_parser("pi-upper", help="prime-counting upper bound at x")
    b.add_argument("--x", type=str, required=True)
    b.add_argument("--precise", action="store_true")
    b.set_defaults(func=_cmd_doc, call=lambda a: _fields(bounds.pi_upper_dusart(a.x, precise=a.precise)))

    b = bsub.add_parser("stirling", help="factorial log-bracketing at integer nu")
    b.add_argument("--nu", type=int, required=True)
    b.add_argument("--precise", action="store_true")
    b.set_defaults(func=_cmd_doc, call=_stirling_doc)

    b = bsub.add_parser("thresholds", help="large-n cutoffs for a given leading constant")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--c", type=_finite_float, required=True)
    b.set_defaults(func=_cmd_doc, call=lambda a: _fields(bounds.section5_thresholds(a.n, a.c)))

    p = sub.add_parser("lemma", help="certified lemma checkers")
    lsub = p.add_subparsers(dest="lemma_command", required=True)

    l = lsub.add_parser("check21", help="two-sided log-ratio test on a parameter tuple")
    _add_tuple_flags(l)
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma_report, check=lemma.check_lemma21)

    l = lsub.add_parser("check22", help="does this (n, k) force l = delta")
    l.add_argument("--n", type=int, required=True)
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma_report, check=lemma.check_lemma22)

    l = lsub.add_parser("check23", help="smoothness of the window products")
    _add_tuple_flags(l)
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma_report, check=lemma.check_lemma23_smooth)

    l = lsub.add_parser("check31", help="prime-factorization size bound")
    _add_tuple_flags(l)
    l.add_argument("--pi-mode", choices=("exact", "dusart"), default="exact")
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma_report, check=lemma.check_lemma31)

    l = lsub.add_parser("threshold32", help="crossover F* of the window-size expression")
    l.add_argument("--lo", type=int, default=10**4)
    l.add_argument("--hi", type=int, default=10**7)
    l.set_defaults(func=_cmd_doc, call=lambda a: _fields(lemma.threshold_lemma32(a.lo, a.hi)))

    l = lsub.add_parser(
        "nmax31", help="maximize the n-bound over the (k, l) grid",
        argument_default=argparse.SUPPRESS,
    )
    l.add_argument("--k-min", type=int)
    l.add_argument("--k-max", type=int)
    l.add_argument("--dense-until", type=int)
    l.add_argument("--growth", type=float)
    l.add_argument("--l-samples", type=int)
    l.add_argument("--pi-mode", choices=("exact", "dusart"))
    l.set_defaults(func=_cmd_lemma_nmax31)

    l = lsub.add_parser("section4", help="incompatible growth bounds for large k")
    l.add_argument("--delta", type=int, default=None)
    l.add_argument("--n", type=int, default=None)
    l.add_argument("--m", type=int, default=None)
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--l", type=int, default=None)
    l.add_argument("--json", action="store_true")
    l.set_defaults(
        func=_cmd_lemma_section4,
        check=lemma.section4_check,
        call=lambda a: _fields(lemma.section4_contradiction(a.k), "k"),
    )

    l = lsub.add_parser("section5", help="central-binomial exclusion of small l at large n")
    l.add_argument("--n", type=int, required=True)
    l.add_argument("--c", type=_finite_float, required=True)
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma_section5)

    p = sub.add_parser("sieve", help="segmented prime sieve utilities")
    ssub = p.add_subparsers(dest="sieve_command", required=True)

    s = ssub.add_parser("gaps", help="stream prime gaps >= a threshold as JSONL")
    s.add_argument("--lo", type=int, required=True)
    s.add_argument("--hi", type=int, required=True)
    s.add_argument("--min-gap", type=int, required=True)
    s.add_argument("--segment-size", type=int, default=sieve.DEFAULT_SEGMENT_ODDS)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--out", default=None)
    s.set_defaults(
        func=_cmd_lines,
        call=lambda a: map(
            _fields, sieve.gap_scan(a.lo, a.hi, a.min_gap, segment_size=a.segment_size, workers=a.threads)
        ),
    )

    s = ssub.add_parser("pi", help="exact prime count up to x")
    s.add_argument("--x", type=int, required=True)
    s.set_defaults(func=_cmd_doc, call=lambda a: {"pi": sieve.prime_count(a.x)})

    s = ssub.add_parser("neighbors", help="nearest primes around x")
    s.add_argument("--x", type=int, required=True)
    s.set_defaults(func=_cmd_doc, call=_neighbors_doc)

    p = sub.add_parser(
        "certify", help="run the prime-gap smoothness certificate", parents=[_certify_values()]
    )
    p.add_argument("--checkpoint", dest="checkpoint_path")
    p.add_argument("--witness", dest="witness_path")
    p.add_argument("--stop-after", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"collisionlab: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
