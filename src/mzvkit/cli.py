"""Command-line front end.

Subcommands: eval, reg, finite (eval/modp), modp, dsh (dim/prop66/groupring),
relations.  Global flags --digits, --cache, --format {json,csv}.  The exit
code is 0 exactly when every requested verdict is confirmed; informational
queries exit 0 unless they fail, with the message on stderr and nothing on
stdout: 2 for invalid input (ValueError) or an unusable --cache path
(OSError), 1 for a failed exactness check (ArithmeticError).
"""

import argparse
import csv
import json
import sys

from .dsh import cyclic_invariance_kernel, dimension_table
from .finite import (
    primes_in_range,
    zeta_A_component,
    zeta_F,
    zeta_F_sharp,
    zeta_natural_A_component,
    zeta_natural_F,
)
from .groupring import groupring_identity_check
from . import indices
from .indices import format_index
from .numeric import DEFAULT_DIGITS, configure_cache, eval_admissible, eval_combo
from .relations import (
    build_spanning_set,
    check_main_congruence,
    opposite_parity_indices,
    verify_congruence,
    verify_contraction_congruence,
    verify_word_dual_congruence,
)
from .regularization import normalize_scheme, regularize

__all__ = ["build_parser", "main"]


def parse_index(text):
    """Accepts the canonical form "(1,2,3)" as well as bare "1,2,3"."""
    text = text.strip()
    if not text.startswith("("):
        text = "(%s)" % text
    try:
        return indices.parse_index(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_int_range(text):
    """"0..12" or "5..100"; a single integer means a one-element range."""
    body = text.strip().replace(":", "..")
    if ".." in body:
        lo, hi = body.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(body)
    if hi < lo:
        raise argparse.ArgumentTypeError("empty range %r" % text)
    return lo, hi


# ---------------------------------------------------------------------------
# handlers return (payload, rows, all_confirmed)

def cmd_eval(args):
    k = args.index
    # plain evaluation requires an admissible index; non-admissible input
    # belongs to the reg and finite subcommands
    value = eval_admissible(k, args.digits)
    row = {"index": format_index(k), "digits": args.digits,
           "value": value.to_decimal()}
    return row, [row], True


def cmd_reg(args):
    k = args.index
    scheme = normalize_scheme(args.scheme)
    poly = regularize(scheme, k)
    payload = {
        "index": format_index(k),
        "scheme": scheme,
        "polynomial": poly.to_json_obj(),
        "constant_term": poly.constant_term().to_json_obj(),
    }
    rows = [{"T_degree": j, "combo": json.dumps(combo.to_json_obj())}
            for j, combo in sorted(poly.terms.items())]
    return payload, rows, True


FINITE_SCHEMES = {"F": zeta_F, "Fsharp": zeta_F_sharp, "natural": zeta_natural_F}


def cmd_finite_eval(args):
    k = args.index
    combo = FINITE_SCHEMES[args.scheme](k)
    value = eval_combo(combo, args.digits)
    payload = {
        "index": format_index(k),
        "scheme": args.scheme,
        "combo": combo.to_json_obj(),
        "value": value.to_decimal(),
        "digits": args.digits,
    }
    rows = [{"index": format_index(k), "scheme": args.scheme,
             "value": value.to_decimal()}]
    return payload, rows, True


def cmd_finite_modp(args):
    k = args.index
    lo, hi = args.primes
    component = zeta_natural_A_component if args.natural else zeta_A_component
    rows = []
    for p in primes_in_range(lo, hi):
        try:
            value = component(k, p)
        except ValueError:
            # small primes cannot invert the tie weights; skip them
            continue
        rows.append({"prime": value.prime, "residue": value.residue})
    payload = {
        "index": format_index(k),
        "variant": "natural" if args.natural else "plain",
        "rows": rows,
    }
    return payload, rows, True


def cmd_dsh_dim(args):
    lo, hi = args.d
    table = dimension_table(args.n, range(lo, hi + 1))
    rows = [{"n": args.n, "d": d, "weight": args.n + d, "dim": dim}
            for d, dim in sorted(table.items())]
    return {"n": args.n, "dims": {str(d): v for d, v in sorted(table.items())},
            "rows": rows}, rows, True


def cmd_dsh_prop66(args):
    # the kernel raises ArithmeticError unless the pivot orders agree
    basis = cyclic_invariance_kernel(args.n, args.d)
    row = {"n": args.n, "d": args.d, "kernel_dim": len(basis),
           "pivot_orders_agree": True}
    payload = dict(row)
    payload["basis"] = [str(f) for f in basis]
    return payload, [row], True


def cmd_dsh_groupring(args):
    holds = groupring_identity_check(args.n)
    row = {"n": args.n, "identity_holds": holds}
    return row, [row], holds


def _report_row(report):
    return {
        "target": report.target,
        "verdict": report.verdict,
        "height": report.height(),
        "residual": report.residual,
        "coefficients": "; ".join(
            "%s: %s" % (label, q) for label, q in report.coefficients if q != 0),
    }


def cmd_relations(args):
    reports = []
    if args.action == "main":
        reports.append(check_main_congruence(args.index, args.digits,
                                             args.denom_bound))
    elif args.action == "sweep":
        for k in opposite_parity_indices(args.max_weight, args.max_depth):
            reports.append(check_main_congruence(k, args.digits,
                                                 args.denom_bound))
    elif args.action == "contraction":
        both = verify_contraction_congruence(args.index, args.digits,
                                             args.denom_bound)
        reports.extend(both[r] for r in sorted(both))
        # only the weight-homogeneous reading is expected to hold
        rows = [_report_row(r) for r in reports]
        ok = both["weight_homogeneous"].confirmed()
        return {"reports": [r.to_json() for r in reports]}, rows, ok
    elif args.action == "word":
        reports.append(verify_word_dual_congruence(args.index, args.digits,
                                                   args.denom_bound))
    elif args.action == "health":
        from .numeric import BigReal
        target = eval_admissible((1, 3), args.digits)
        zero = BigReal.from_rational(0, args.digits)
        reports.append(verify_congruence(
            target, zero, build_spanning_set(4, 0, args.digits),
            denom_bound=args.denom_bound, target="z(1,3) in weight-4 product span"))
    rows = [_report_row(r) for r in reports]
    ok = all(r.confirmed() for r in reports)
    return {"reports": [r.to_json() for r in reports]}, rows, ok


# ---------------------------------------------------------------------------
# parser

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                        help="working precision in decimal digits")
    common.add_argument("--cache", default=argparse.SUPPRESS,
                        help="path to a JSON-lines value cache")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS, dest="fmt",
                        help="output format")

    parser = argparse.ArgumentParser(
        prog="mzv",
        description="exact and high-precision multiple zeta value toolkit")
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="fmt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an admissible index numerically")
    p.add_argument("--index", type=parse_index, required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("reg", parents=[common],
                       help="regularization polynomial in T")
    p.add_argument("--index", type=parse_index, required=True)
    p.add_argument("--scheme", default="stuffle",
                   help="stuffle, shuffle, or natural (aliases *, #)")
    p.set_defaults(handler=cmd_reg)

    p = sub.add_parser("finite", parents=[common],
                       help="finite symmetric values, exact and mod p")
    fin = p.add_subparsers(dest="finite_action", required=True)
    fe = fin.add_parser("eval", parents=[common])
    fe.add_argument("--index", type=parse_index, required=True)
    fe.add_argument("--scheme", choices=sorted(FINITE_SCHEMES), default="F")
    fe.set_defaults(handler=cmd_finite_eval)
    for p in (fin.add_parser("modp", parents=[common]),
              sub.add_parser("modp", parents=[common],
                             help="mod-p components (shorthand for finite modp)")):
        p.add_argument("--index", type=parse_index, required=True)
        p.add_argument("--primes", type=parse_int_range, default=(5, 50))
        p.add_argument("--natural", action="store_true")
        p.set_defaults(handler=cmd_finite_modp)

    p = sub.add_parser("dsh", parents=[common],
                       help="linearized double-shuffle linear algebra")
    dsh = p.add_subparsers(dest="dsh_action", required=True)
    dd = dsh.add_parser("dim", parents=[common])
    dd.add_argument("--n", type=int, required=True)
    dd.add_argument("--d", type=parse_int_range, required=True)
    dd.set_defaults(handler=cmd_dsh_dim)
    dp = dsh.add_parser("prop66", parents=[common])
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--d", type=int, required=True)
    dp.set_defaults(handler=cmd_dsh_prop66)
    dg = dsh.add_parser("groupring", parents=[common])
    dg.add_argument("--n", type=int, required=True)
    dg.set_defaults(handler=cmd_dsh_groupring)

    p = sub.add_parser("relations", parents=[common],
                       help="numeric congruence verdicts")
    p.add_argument("action",
                   choices=("main", "sweep", "contraction", "word", "health"))
    p.add_argument("--index", type=parse_index)
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--denom-bound", type=int, default=10 ** 4)
    p.set_defaults(handler=cmd_relations)

    return parser


def _emit(payload, rows, fmt, out):
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        if not rows:
            return
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "relations" and args.action in ("main", "contraction",
                                                       "word"):
        if args.index is None:
            parser.error("this relations action needs --index")
    try:
        if args.cache:
            configure_cache(args.cache)
        payload, rows, ok = args.handler(args)
    except (ValueError, OSError) as exc:
        print("mzv: error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a failed exactness check: no result is printed
        print("mzv: error: %s" % exc, file=sys.stderr)
        return 1
    _emit(payload, rows, args.fmt, out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
