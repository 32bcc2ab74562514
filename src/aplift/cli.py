"""Command-line interface.

Exit codes: 0 success / witness found / certificate valid; 1 negative result
or absent witness; 2 invalid input; 3 search budget exceeded; 4 certificate
invalid. The APLIFT_BUDGET environment variable overrides the default search
budget for the coloring checks.

Output: a subcommand prints its report lines on stdout, then
``certificate written to PATH`` when ``--out PATH`` is given. ``--out`` writes
a certificate for every decided finding, a ``vdw`` counterexample (exit 1)
included. Invalid input (exit 2) prints only ``error: ...`` on stderr and
writes no file.

Each command imports the modules it runs as it runs, ``certificates`` only for
``--out`` and ``verify``, so a fresh process compiles no others; ``sets`` and
``lift``, which every command reaches, are imported with this module.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Optional

from ._version import __version__
from .lift import Box2D, ap_search, find_pws_witness_2d, induced_box, lift, reach
from .sets import IntSet, Window, evaluate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_BAD_CERT = 4

# What a command found: its exit code, its stdout lines, and the values its
# certificate is built from (None when the finding is not certifiable).
Finding = tuple[int, list[str], Optional[dict]]


def _parse_window(text: str) -> Window:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"window must look like LO:HI, got {text!r}") from None
    return Window(lo, hi)


def _parse_box(text: str) -> Box2D:
    try:
        a_part, d_part = text.split("x")
        a_lo, a_hi = (int(v) for v in a_part.split(":"))
        d_lo, d_hi = (int(v) for v in d_part.split(":"))
    except ValueError:
        raise ValueError(f"box must look like ALO:AHIxDLO:DHI, got {text!r}") from None
    return Box2D(a_lo, a_hi, d_lo, d_hi)


def _load_set(args) -> tuple[IntSet, Callable[..., dict]]:
    """Build the working set, and its canonical certificate inputs as a
    function of the ``certificates`` module.

    A set file is read whole. An expression is evaluated only on the part of
    --window that the command reads (all of it but for ``lift --box``); the
    certificate records the window as given.
    """
    if args.set_file:
        if args.set or args.window:
            raise ValueError("--set-file takes neither --set nor --window")
        from .fileformats import read_intset
        A = read_intset(_read(args.set_file))
        return A, lambda certs: certs.inputs_for_set(A)
    if not args.set:
        raise ValueError("need --set EXPR or --set-file PATH")
    if not args.window:
        raise ValueError("--set needs --window LO:HI")
    from .dsl import parse_dsl
    window = _parse_window(args.window)
    program = parse_dsl(args.set)
    if args.command == "lift" and args.box:
        A = evaluate(program.expr, window.clip(reach(args.len, _parse_box(args.box))))
    else:
        A = evaluate(program.expr, window)
    return A, lambda certs: certs.inputs_for_expr(program.expr, window)


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _braces(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _add_set_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", help="set expression, e.g. 'union(multiples(3), ap(5, 7))'")
    p.add_argument("--window", help="evaluation window LO:HI")
    p.add_argument("--set-file", help="read the set from a set file instead")


def _cmd_analyze(args, A: IntSet) -> Finding:
    from .largeness import find_pws_witness, longest_member_run, longest_miss_run, min_r_for_L
    if args.r is not None and args.L is None:
        raise ValueError("--r needs --L")
    if args.out and args.r is None:
        raise ValueError("--out needs --r and --L")
    w = A.window
    miss_run = longest_miss_run(A)
    lines = [
        f"window {w.lo}:{w.hi} width {w.width}",
        f"members {len(A)} density {A.density():.6f}",
        f"longest member run {longest_member_run(A)}",
        f"longest miss run {miss_run}",
        f"least r syndetic on the full window: {miss_run + 1 if len(A) else 'none (empty set)'}",
    ]
    if args.r is None:
        if args.L is not None:
            least = min_r_for_L(A, args.L)
            lines.append(f"least r with a length-{args.L} witness: {least if least else 'none'}")
        return EXIT_OK, lines, None
    wit = find_pws_witness(A, args.r, args.L)
    if wit is None:
        lines.append(f"no length-{args.L} interval is {args.r}-syndetic")
        return EXIT_NEGATIVE, lines, None
    lines.append(f"witness interval [{wit.start}, {wit.start + args.L - 1}] r={args.r}")
    return EXIT_OK, lines, dict(r=args.r, L=args.L, start=wit.start)


def _cmd_ap(args, A: IntSet) -> Finding:
    wit = ap_search(A, args.len)
    if wit is None:
        return EXIT_NEGATIVE, [f"no progression with {args.len + 1} terms"], None
    return EXIT_OK, [f"witness a={wit.a} d={wit.d} l={wit.l}"], dict(l=wit.l, a=wit.a, d=wit.d)


def _cmd_lift(args, A: IntSet) -> Finding:
    box = _parse_box(args.box) if args.box else induced_box(A.window, args.len)
    try:
        B = lift(A, args.len, box)
    except ValueError as e:
        if args.box:
            raise
        # the box induced by a wide window has about width^2 / (4 * len) pairs
        raise ValueError(f"{e}; choose a smaller one with --box") from None
    L1 = args.L1 if args.L1 is not None else box.a_width
    L2 = args.L2 if args.L2 is not None else box.d_width
    lines = [
        f"lift depth {args.len} box {box.a_lo}:{box.a_hi}x{box.d_lo}:{box.d_hi}"
        f" pairs {len(B)}"
    ]
    sub = find_pws_witness_2d(B, args.r1, args.r2, L1, L2)
    if sub is None:
        lines.append(f"no {L1}x{L2} sub-box is ({args.r1}, {args.r2})-syndetic")
        return EXIT_NEGATIVE, lines, None
    lines.append(
        f"witness sub-box {sub.a_lo}:{sub.a_hi}x{sub.d_lo}:{sub.d_hi}"
        f" blocks ({args.r1}, {args.r2})"
    )
    return EXIT_OK, lines, dict(
        l=args.len, box=box, r1=args.r1, r2=args.r2, L1=L1, L2=L2, a0=sub.a_lo, d0=sub.d_lo,
    )


def _cmd_jset(args, A: IntSet) -> Finding:
    from .fileformats import read_family
    from .jsets import jset_witness
    F = read_family(_read(args.family))
    wit = jset_witness(A, F, args.a_max)
    if wit is None:
        return EXIT_NEGATIVE, [f"no witness with base a <= {args.a_max}"], None
    line = f"witness a={wit.a} H={_braces(wit.H)}"
    return EXIT_OK, [line], dict(family=F, a_max=args.a_max, a=wit.a, H=wit.H)


def _cmd_transfer(args, A: IntSet) -> Finding:
    from .fileformats import read_family2d
    from .jsets import transfer_witness
    F2D = read_family2d(_read(args.family2d))
    wit = transfer_witness(A, F2D, args.b, args.len, args.a_max)
    if wit is None:
        return EXIT_NEGATIVE, [f"no witness with base a <= {args.a_max}"], None
    line = f"witness base ({wit.a1}, {wit.a2}) H={_braces(wit.H)} depth {args.len}"
    return EXIT_OK, [line], dict(
        family2d=F2D, b=args.b, l=args.len, a_max=args.a_max, a1=wit.a1, a2=wit.a2, H=wit.H,
    )


def _cmd_tower(args, _: None) -> Finding:
    from .fileformats import read_chain, read_family
    from .towers import KIND_QUASI_CENTRAL, ap_translate_level_search, check_cset, check_quasicentral
    chain = read_chain(_read(args.chain))
    if chain.kind == KIND_QUASI_CENTRAL:
        if args.r is None or args.L is None or args.family:
            raise ValueError("quasi-central chains take --r and --L, and no --family")
        families = a_max = None
        report = check_quasicentral(chain, args.r, args.L, args.x_max)
    else:
        if args.r is not None or args.L is not None:
            raise ValueError("c-set chains take --family and --a-max, and no --r or --L")
        families, a_max = tuple(read_family(_read(p)) for p in args.family or []), args.a_max
        report = check_cset(chain, families, a_max, args.x_max)
    failed = [p for p in report.probes if p.found_level is None]
    lines = [
        f"chain kind {chain.kind} depth {chain.depth}"
        f" window {chain.window.lo}:{chain.window.hi}",
        f"translate probes {len(report.probes)} failed {len(failed)}",
    ]
    lines += [f"  level {p.level} x={p.x}: no absorbing level" for p in failed[:10]]
    for i, wits in enumerate(report.levels, start=1):
        for j, wit in enumerate(wits, start=1):
            if families is None:  # the one pws witness of a quasi-central level
                lines.append(f"  level {i}: no (r={args.r}, L={args.L}) witness" if wit is None else
                             f"  level {i}: witness interval [{wit.start}, {wit.start + args.L - 1}]")
            else:
                lines.append(f"  level {i} family {j}: no witness with a <= {a_max}" if wit is None
                             else f"  level {i} family {j}: a={wit.a} H={_braces(wit.H)}")
    if args.probe:
        n, a, b = args.probe
        found = ap_translate_level_search(chain, n, a, b, args.len)
        if found is None:
            lines.append(f"probe ({a}, {b}) at level {n}: chain depth insufficient")
        else:
            lines.append(f"probe ({a}, {b}) at level {n}: absorbed at level {found}")
    if not report.passed:
        return EXIT_NEGATIVE, lines + ["verdict: FAIL"], None
    return EXIT_OK, lines + ["verdict: PASS"], dict(
        chain=chain, families=families, x_max=args.x_max, r=args.r, L=args.L, a_max=a_max,
        translate=report.probes, levels=report.levels,
    )


def _cmd_vdw(args, _: None) -> Finding:
    from .largeness import BUDGET_ENV_VAR, vdw_check
    res = vdw_check(args.n, args.colors, args.len, budget=args.budget)
    lines = [f"verdict {res.verdict} strategy {res.strategy} explored {res.explored}"]
    if res.verdict == "unknown":
        lines.append(f"budget {res.budget} exhausted; raise it or set {BUDGET_ENV_VAR}")
        return EXIT_BUDGET, lines, None
    if res.coloring is not None:
        lines.append("coloring " + "".join(str(c) for c in res.coloring))
    return (EXIT_OK if res.verdict == "true" else EXIT_NEGATIVE), lines, dict(
        n=args.n, colors=args.colors, ap_len=args.len, verdict=res.verdict,
        coloring=res.coloring, strategy=res.strategy, explored=res.explored,
    )


def _cmd_verify(args, _: None) -> Finding:
    import json
    from . import certificates as certs
    with open(args.certificate, "rb") as f:
        data = f.read()
    # json.loads reads UTF-8, -16 and -32; ValueError covers other bytes, JSONDecodeError and,
    # from Python 3.11, a number of over 4,300 digits; RecursionError is JSON nested too deeply
    try:
        cert = json.loads(data)
    except (ValueError, RecursionError) as e:
        return EXIT_BAD_CERT, [f"not a certificate: {e}"], None
    try:
        ok = certs.verify_certificate(cert)
    except certs.CertificateError as e:
        return EXIT_BAD_CERT, [f"invalid: {e}"], None
    if not ok:
        return EXIT_BAD_CERT, ["invalid: witness does not verify against the inputs"], None
    return EXIT_OK, [f"valid {cert['kind']} certificate"], None


# command -> the certificate kind that its --out writes
_CERT_KINDS = {"analyze": "pws", "ap": "ap", "lift": "pws2d", "jset": "jset",
               "transfer": "jset2d", "tower": "chain", "vdw": "vdw"}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # The parser and each command's subparser by name, built once per process:
    # parse_args keeps its results in a fresh Namespace and leaves them unchanged.
    parser = argparse.ArgumentParser(
        prog="aplift",
        description="largeness detectors and progression-lift witnesses on integer windows",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="largeness report for a set")
    _add_set_flags(p)
    p.add_argument("--r", type=int, help="block length for a witness search")
    p.add_argument("--L", type=int, help="interval length for a witness search")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ap", help="search a progression inside the set")
    _add_set_flags(p)
    p.add_argument("--len", type=int, required=True, help="steps l (l+1 terms)")
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("lift", help="lift the set to pairs and search a syndetic sub-box")
    _add_set_flags(p)
    p.add_argument("--len", type=int, required=True, help="steps l (l+1 terms)")
    p.add_argument("--box", help="pair box ALO:AHIxDLO:DHI (default: clip-free box)")
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--L1", type=int, help="sub-box width (default: full box)")
    p.add_argument("--L2", type=int, help="sub-box height (default: full box)")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("jset", help="search a simultaneous sum witness")
    _add_set_flags(p)
    p.add_argument("--family", required=True, help="family file")
    p.add_argument("--a-max", type=int, default=64, dest="a_max")
    p.set_defaults(func=_cmd_jset)

    p = sub.add_parser("transfer", help="transfer a derived-family witness to pairs")
    _add_set_flags(p)
    p.add_argument("--family2d", required=True, help="family2d file")
    p.add_argument("--b", type=int, default=1, help="step offset (default 1)")
    p.add_argument("--len", type=int, required=True, help="steps l (l+1 terms)")
    p.add_argument("--a-max", type=int, default=64, dest="a_max")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("tower", help="check a decreasing chain")
    p.add_argument("--chain", required=True, help="chain file")
    p.add_argument("--x-max", type=int, default=32, dest="x_max")
    p.add_argument("--r", type=int, help="block length (quasi-central)")
    p.add_argument("--L", type=int, help="interval length (quasi-central)")
    p.add_argument("--family", action="append", help="family file (c-set, repeatable)")
    p.add_argument("--a-max", type=int, default=64, dest="a_max")
    p.add_argument(
        "--probe",
        nargs=3,
        type=int,
        metavar=("N", "A", "B"),
        help="also probe the pair translate at level N with progression (A, B)",
    )
    p.add_argument("--len", type=int, default=2, help="probe depth l (default 2)")
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("vdw", help="coloring check for monochromatic progressions")
    p.add_argument("--n", type=int, required=True, help="window length")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="terms per progression")
    p.add_argument("--budget", type=int, help="search budget override")
    p.set_defaults(func=_cmd_vdw)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("certificate", help="certificate file")
    p.set_defaults(func=_cmd_verify)

    for name, kind in _CERT_KINDS.items():
        article = "an" if kind[0] in "aeiou" else "a"
        sub.choices[name].add_argument("--out", help=f"write {article} {kind} certificate here")
    return parser, dict(sub.choices)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parser's ``parse_args(argv)`` in one pass: when argv[0] names a
    command, its subparser alone reads the rest, and what it leaves over is
    refused by the top-level parser, as the subparsers action would."""
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _run(args) -> int:
    """Load the set, run the command, write its --out, then print its lines
    (none when the command raises or the certificate cannot be written)."""
    # a command with the set flags gets its set; the others get no set inputs
    A, set_inputs = _load_set(args) if "set" in args else (None, lambda certs: {})
    code, lines, values = args.func(args, A)
    if values is not None and args.out:
        from . import certificates as certs
        cert = certs.certify(_CERT_KINDS[args.command], set_inputs(certs), **values)
        with open(args.out, "w") as f:
            f.write(certs.dumps_certificate(cert))
        lines.append(f"certificate written to {args.out}")
    for line in lines:
        print(line)
    return code


def _certificate_errors() -> tuple[type, ...]:
    """CertificateError once ``certificates``, which alone raises it, is loaded."""
    certs = sys.modules.get(f"{__package__}.certificates")
    return (certs.CertificateError,) if certs else ()


def run_command(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    except _certificate_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CERT
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
