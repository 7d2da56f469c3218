"""Command line front end.

Subcommands:

  expand   print coefficients of an eta-quotient expansion
  pdot     evaluate the designated-summand counting functions
  radu     run one congruence verification certificate
  sturm    print a Sturm bound
  check    run a named verification suite (or all of them)

Exit status: 0 when every requested check passed, 1 when a check failed
or a certificate's preconditions do not hold, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .modforms import EtaQuotient, modularity_check, q_expansion, sturm_bound
from .partitions import (
    PD_EXPONENTS, PDO_EXPONENTS, PDO_T_EXPONENTS, pd, pd_t, pdo, pdo_t,
    pdo_t_series,
)
from .radu import (
    AuxExponents,
    CriterionNotApplicable,
    RaduInstance,
    radu_verify,
)
from .series import eta_product
from .verify import SUITES, emit_report, plan_suites


def parse_exponents(text: str) -> dict[int, int]:
    """Parse "1:-2,2:1,12:2" into {1: -2, 2: 1, 12: 2}."""
    out: dict[int, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        step, _, value = item.partition(":")
        try:
            key = int(step)
            val = int(value)
        except ValueError:
            raise ValueError(f"bad exponent entry {item!r}, want step:value")
        if key in out:
            raise ValueError(f"duplicate step {key} in exponent list")
        out[key] = val
    if not out:
        raise ValueError("empty exponent list")
    return out


def format_exponents(exponents: dict[int, int]) -> str:
    return ",".join(f"{d}:{r}" for d, r in sorted(exponents.items()))


def parse_eta_quotient(text: str) -> EtaQuotient:
    """Parse "level;scalar;d1:r1,d2:r2,..." into an EtaQuotient."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            f"bad eta quotient {text!r}, want level;scalar;d1:r1,..."
        )
    return EtaQuotient(int(parts[0]), parse_exponents(parts[2]),
                       scalar=int(parts[1]))


def format_eta_quotient(eq: EtaQuotient) -> str:
    return f"{eq.level};{eq.scalar};{format_exponents(eq.exponents)}"


def _cmd_expand(args) -> int:
    try:
        eq = parse_eta_quotient(args.eta)
    except ValueError as exc:
        print(f"pdotq expand: {exc}", file=sys.stderr)
        return 2
    if args.order < 0:
        print(f"pdotq expand: --order must be >= 0, got {args.order}",
              file=sys.stderr)
        return 2
    if args.mod is not None and args.mod < 2:
        print(f"pdotq expand: --mod must be >= 2, got {args.mod}",
              file=sys.stderr)
        return 2
    try:
        series = q_expansion(eq, args.order, args.mod)
    except ValueError as exc:
        print(f"pdotq expand: not expandable: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            "eta": format_eta_quotient(eq),
            "order": series.order,
            "mod": args.mod,
            "holomorphic": modularity_check(eq).ok,
            "coefficients": list(series.coeffs),
        }
        print(json.dumps(payload, indent=2))
    else:
        for n, c in enumerate(series.coeffs):
            print(f"{n}\t{c}")
    return 0


_COUNTERS = {"pd": pd, "pd-tagged": pd_t, "pdo": pdo, "pdo-tagged": pdo_t}
# sum c(n) q^n to a given order, for each counter with a generating function
_SERIES = {"pd": partial(eta_product, PD_EXPONENTS),
           "pdo": partial(eta_product, PDO_EXPONENTS),
           "pdo-tagged": pdo_t_series}


def _cmd_pdot(args) -> int:
    values = sorted(set(args.n))
    if values and values[0] < 0:
        print("pdotq pdot: n must be >= 0", file=sys.stderr)
        return 2
    if args.method == "enum" or args.counter not in _SERIES:
        counter = _COUNTERS[args.counter]
        pairs = [(n, counter(n)) for n in values]
    else:
        series = _SERIES[args.counter](values[-1] + 1)
        pairs = [(n, series.coeffs[n]) for n in values]
    if args.json:
        print(json.dumps({"counter": args.counter,
                          "values": [[n, c] for n, c in pairs]}))
    else:
        for n, c in pairs:
            print(f"{n}\t{c}")
    return 0


def _cmd_radu(args) -> int:
    try:
        r = parse_exponents(args.r) if args.r else dict(PDO_T_EXPONENTS)
        rprime = parse_exponents(args.rprime)
        inst = RaduInstance(m=args.m, M=args.big_m, level=args.level,
                            r=r, t=args.t)
        aux = AuxExponents(args.level, rprime)
    except ValueError as exc:
        print(f"pdotq radu: {exc}", file=sys.stderr)
        return 2
    if args.min_depth < 0:
        print(f"pdotq radu: --min-depth must be >= 0, got {args.min_depth}",
              file=sys.stderr)
        return 2
    try:
        cert = radu_verify(inst, aux, args.u, min_depth=args.min_depth)
    except CriterionNotApplicable as exc:
        print(f"pdotq radu: criterion not applicable: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pdotq radu: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(cert.to_json())
    else:
        print(f"instance: m={cert.m} M={cert.M} level={cert.level} "
              f"t={cert.t} r={format_exponents(cert.r)}")
        print(f"auxiliary: r'={format_exponents(cert.rprime)}  modulus: "
              f"{cert.u}")
        print(f"orbit: {cert.p_set}")
        print(f"bound: nu={cert.nu} floor={cert.floor_nu}  "
              f"checked {len(cert.checked)} coefficients")
        if cert.verdict:
            print("verdict: PASS (congruence proved)")
        else:
            print(f"verdict: FAIL at {cert.failure}")
    return 0 if cert.verdict else 1


def _cmd_sturm(args) -> int:
    try:
        bound = sturm_bound(args.weight, args.level,
                            same_character=not args.different_character)
    except ValueError as exc:
        print(f"pdotq sturm: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"weight": args.weight, "level": args.level,
                          "same_character": not args.different_character,
                          "bound": bound}))
    else:
        print(bound)
    return 0


# CLI flag -> suite keyword, per suite
_SUITE_FLAGS = {
    "dissection": {"order": "order", "bound": "binom_order"},
    "sturm": {},
    "genfun": {"k": "k", "bound": "bound"},
    "divisibility": {"kmax": "k_max", "nmax": "n_max"},
    "coexistence": {"kmax": "k_max", "bound": "bound"},
    "prime-family": {"p": "p", "nmax": "n_max", "ellmax": "ell_max"},
    "intermediate": {"bound": "bound"},
    "certificates": {},
    "powers-of-two": {"order": "order", "kmax": "conj_k_max"},
}

# smallest value each numeric flag accepts; --p is checked by its suite,
# which rejects anything but a prime p == 5 (mod 6)
_FLAG_MIN = {"order": 1, "bound": 0, "k": 0, "kmax": 0, "nmax": 0,
             "ellmax": 0}


def _cmd_check(args, parser) -> int:
    provided = {name: getattr(args, name)
                for name in ("order", "bound", "k", "kmax", "nmax",
                             "ellmax", "p")
                if getattr(args, name) is not None}
    if args.suite == "all":
        if provided:
            parser.error("numeric flags only apply to a single suite")
        plan_suites(SUITES)
        reports = [fn() for fn in SUITES.values()]
    else:
        flags = _SUITE_FLAGS[args.suite]
        unknown = sorted(set(provided) - set(flags))
        if unknown:
            parser.error(
                f"suite {args.suite!r} does not accept: "
                + ", ".join(f"--{u}" for u in unknown)
            )
        for name, value in provided.items():
            if name in _FLAG_MIN and value < _FLAG_MIN[name]:
                print(f"pdotq check: --{name} must be >= {_FLAG_MIN[name]}, "
                      f"got {value}", file=sys.stderr)
                return 2
        kwargs = {flags[name]: value for name, value in provided.items()}
        try:
            reports = [SUITES[args.suite](**kwargs)]
        except ValueError as exc:
            # a suite raises ValueError only for parameters it cannot take
            print(f"pdotq check: {exc}", file=sys.stderr)
            return 2
    passed = all(r.passed for r in reports)
    if args.json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps({"reports": [r.to_dict() for r in reports],
                              "passed": passed}, indent=2))
    else:
        for r in reports:
            print(emit_report(r))
        if len(reports) > 1:
            print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared after that:
    parse_args returns a fresh Namespace each call, and no default is
    mutable, so one parse cannot leak into the next."""
    parser = argparse.ArgumentParser(
        prog="pdotq",
        description="Exact q-series verification of designated-summand "
                    "congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser(
        "expand", help="expand an eta quotient as a q-series")
    p_expand.add_argument("--eta", required=True,
                          help='quotient as "level;scalar;d1:r1,d2:r2"')
    p_expand.add_argument("--order", type=int, default=20,
                          help="number of coefficients (default 20)")
    p_expand.add_argument("--mod", type=int, default=None,
                          help="reduce coefficients modulo this")
    p_expand.add_argument("--json", action="store_true")

    p_pdot = sub.add_parser(
        "pdot", help="count partitions with designated summands")
    p_pdot.add_argument("--n", type=int, nargs="+", required=True)
    p_pdot.add_argument("--counter", choices=sorted(_COUNTERS),
                        default="pdo-tagged",
                        help="which statistic to evaluate "
                             "(default pdo-tagged)")
    p_pdot.add_argument("--method", choices=("series", "enum"),
                        default="series",
                        help="generating function or direct enumeration "
                             "(default series; pd-tagged is always "
                             "enumerated)")
    p_pdot.add_argument("--json", action="store_true")

    p_radu = sub.add_parser(
        "radu", help="run one congruence verification certificate")
    p_radu.add_argument("--m", type=int, required=True,
                        help="progression step")
    p_radu.add_argument("--t", type=int, required=True,
                        help="progression offset")
    p_radu.add_argument("--u", type=int, required=True,
                        help="target modulus")
    p_radu.add_argument("--rprime", required=True,
                        help='auxiliary exponents, e.g. "1:5"')
    p_radu.add_argument("--M", dest="big_m", type=int, default=12,
                        help="divisor bound for the exponent set "
                             "(default 12)")
    p_radu.add_argument("--level", type=int, default=12,
                        help="congruence subgroup level (default 12)")
    p_radu.add_argument("--r", default=None,
                        help="exponent set (default: the tagged-odd-part "
                             "generating function)")
    p_radu.add_argument("--min-depth", type=int, default=0,
                        help="check at least this many coefficients per "
                             "progression")
    p_radu.add_argument("--json", action="store_true")

    p_sturm = sub.add_parser("sturm", help="print a Sturm bound")
    p_sturm.add_argument("--weight", type=int, required=True)
    p_sturm.add_argument("--level", type=int, required=True)
    p_sturm.add_argument("--different-character", action="store_true",
                         help="bound for comparing forms with different "
                              "characters")
    p_sturm.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("--suite", required=True,
                         choices=sorted(SUITES) + ["all"])
    p_check.add_argument("--order", type=int, default=None)
    p_check.add_argument("--bound", type=int, default=None)
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--kmax", type=int, default=None)
    p_check.add_argument("--nmax", type=int, default=None)
    p_check.add_argument("--ellmax", type=int, default=None)
    p_check.add_argument("--p", type=int, default=None)
    p_check.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "expand":
        return _cmd_expand(args)
    if args.command == "pdot":
        return _cmd_pdot(args)
    if args.command == "radu":
        return _cmd_radu(args)
    if args.command == "sturm":
        return _cmd_sturm(args)
    return _cmd_check(args, parser)


if __name__ == "__main__":
    sys.exit(main())
