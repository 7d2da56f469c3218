"""Command line front end.

Subcommands:

  expand   print coefficients of an eta-quotient expansion
  pdot     evaluate the designated-summand counting functions
  radu     run one congruence verification certificate
  sturm    print a Sturm bound
  check    run a named verification suite (or all of them)

An argv that starts with a subcommand is parsed once, by that subcommand's
parser alone; the full parser is built only for the usage it prints.

Exit status: 0 when every requested check passed, 1 when a check failed
or a certificate's preconditions do not hold, 2 for usage errors, for
requests past a budget or cap, refused before anything is expanded, and
for a run that the process's memory limit stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from functools import cache, partial
from itertools import chain, tee
from math import e, floor, log10

from .modforms import EtaQuotient, modularity_check, q_expansion, sturm_bound
from .partitions import (
    PD_EXPONENTS, PDO_EXPONENTS, PDO_T_EXPONENTS, designated_counts, pd,
    pd_t, pdo, pdo_t,
)
from .radu import (
    AuxExponents, CriterionNotApplicable, RaduInstance, radu_verify,
)
from .series import binomial_reduce, eta_product, too_wide
from .verify import (
    SUITES, master_plans, master_progression, plan_master_series,
    shifted_progression, shifted_reads, suite_reads,
)


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


# the most coefficients an expansion may be asked for, in a residue ring
# and over Z, where they grow with the order; a request past its budget
# exits 2 before anything is allocated.  Timed at about the budgets on a
# 2-core VM (Python 3.11): `expand --eta "12;1;1:-4,2:1,4:2,6:3" --order
# 1000000 --mod 186624` took 14.2 s and 158 MiB; over Z, `pdot --n
# 100000` (one coefficient past the budget) took 8.3 s and 32 MiB, and
# that expand to order 100000 37 s and 339 MiB
_MAX_COEFFICIENTS = 1_000_000
_MAX_EXACT_COEFFICIENTS = 100_000
# mod M each coefficient costs about as many digits of every product as M
# has, so the count times the digits of M has a budget too; the budget of
# coefficients mod 186624 (6 digits) spends 6,000,000 of it.  Just inside
# it, `check --suite powers-of-two --kmax 4970` (6667 coefficients mod
# 2^4972, 1497 digits) took 13.2 s and 185 MiB on a 2-core VM
_MAX_DIGITS = 10_000_000
# the budgets above were timed on exponents of at most 5 bits; each 5 bits
# more of the largest charges an expansion one budget more, which refuses
# order 100000 mod 186624 of f2^(10^30 + 12)/f1^(2 10^30) (101 bits; it
# took 32 s on a 2-core VM)
_BUDGET_EXPONENT_BITS = 5
# the largest level of a quotient or certificate: listing its divisors is
# O(level), 0.19 s at 10^6 (0.78 s at 10^7) in `expand --json`, 2-core VM
_MAX_LEVEL = 1_000_000


class _Refused(Exception):
    """A usage error or a request past a budget or cap: `main` prints
    `pdotq <command>: <message>` as one stderr line and exits 2."""


def _refuse_outside(name, value, least=None, most=None):
    if least is not None and value < least:
        raise _Refused(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise _Refused(f"{name} must be <= {most}, got {_written(value)}")


def _written(n):
    """n in full up to 12 digits, and past that to three significant
    digits (1.87e+5000), so a huge count or modulus makes a short message
    and never meets the interpreter's limit on int -> str conversion."""
    return str(n) if n < 10 ** 12 else f"{Decimal(n):.2e}"


def _exact_digits(order, exponents):
    """Estimated digits of a coefficient below `order` of prod f_d^(r_d)
    over Z, those of binom(order + K, K) with K = sum |r_d|: pdo_t(99999)
    has 320 and the estimate is 37, so the count budget holds such runs."""
    k = sum(map(abs, exponents.values()))
    b = min(order, k)
    return 1 + floor(b * (log10(e) + log10(order + k) - log10(b))) if b else 1


def _over_budget(count, modulus, exponents=None, weight=1):
    """A message if `count` coefficients over Z (modulus None) or mod M,
    each costing `weight`, or count times their digits (those of M, or over
    Z estimated from `exponents`) pass a budget, or one cannot be written.
    A power f^r is about bitlen(r) multiplies at the full order, so the
    largest |r| that `binomial_reduce` leaves of `exponents` charges
    `weight` once more for every _BUDGET_EXPONENT_BITS of its length."""
    if exponents:
        largest = max(map(abs, binomial_reduce(exponents, modulus).values()),
                      default=0)
        weight *= max(1, -(-largest.bit_length() // _BUDGET_EXPONENT_BITS))
    budget = (_MAX_EXACT_COEFFICIENTS if modulus is None
              else _MAX_COEFFICIENTS) // weight

    def fits(digits):
        return (count <= budget and count * digits <= _MAX_DIGITS // weight
                and not too_wide(digits))

    # a modulus of b bits has at most the digits of 2^b (one more is a
    # margin for rounding), which settles a fit without writing M out, as
    # a plan walk would thousands of times; a refusal counts them
    if modulus is None:
        digits = _exact_digits(min(count, budget), exponents or {})
    elif fits(floor(modulus.bit_length() * log10(2)) + 2):
        return None
    else:
        digits = Decimal(modulus).adjusted() + 1
    if fits(digits):
        return None
    ring = "over Z" if modulus is None else f"mod {_written(modulus)}"
    if count > budget:
        return (f"{_written(count)} coefficients {ring} is over the budget "
                f"of {budget}")
    if count * digits > _MAX_DIGITS // weight:
        return (f"{_written(count)} coefficients of {digits} digits {ring} "
                f"is over the budget of {_MAX_DIGITS // weight} digits")
    return (f"coefficients of {digits} digits {ring} are past the "
            "interpreter's limit on int -> str conversion")


def _refuse_over_budget(what, count, modulus, **cost):
    refused = _over_budget(count, modulus, **cost)
    if refused:
        raise _Refused(f"{what}: {refused}")


def _cmd_expand(args) -> int:
    try:
        eq = parse_eta_quotient(args.eta)
    except ValueError as exc:
        raise _Refused(exc) from exc
    _refuse_outside("--order", args.order, 0)
    if args.mod is not None:
        _refuse_outside("--mod", args.mod, 2)
    _refuse_outside("level", eq.level, most=_MAX_LEVEL)
    _refuse_over_budget(f"--order {args.order}", args.order, args.mod,
                        exponents=eq.exponents)
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


# the one-n counter behind each --counter choice; perfbench's tracer wraps
# the functions through this dict
_COUNTERS = {"pd": pd, "pd-tagged": pd_t, "pdo": pdo, "pdo-tagged": pdo_t}
# counter -> (only odd parts allowed, index of its list), the table of
# partitions.designated_counts that a query reads all its n from
_TABLES = {"pd": (False, 0), "pd-tagged": (False, 1),
           "pdo": (True, 0), "pdo-tagged": (True, 1)}
# the largest n a table is built for: `pdot --counter pd-tagged --n 5000`
# took 9.0 s on a 2-core VM (Python 3.11), and the cost grows a little
# faster than n^2
_MAX_TABLE_N = 5000
# sum c(n) q^n to a given order, for each counter with a generating
# function; pdo_t is read from verify's master cache, as every other read
# of it is, so a longer query continues the series a shorter one expanded
_SERIES = {"pd": partial(eta_product, PD_EXPONENTS),
           "pdo": partial(eta_product, PDO_EXPONENTS),
           "pdo-tagged": partial(master_progression, 1, 0)}


def _cmd_pdot(args) -> int:
    values = sorted(set(args.n))
    if values[0] < 0:
        raise _Refused("n must be >= 0")
    if args.method == "enum" or args.counter not in _SERIES:
        if values[-1] > _MAX_TABLE_N:
            raise _Refused(f"n must be <= {_MAX_TABLE_N} to count "
                           f"{args.counter} from its table")
        odd_only, which = _TABLES[args.counter]
        coeffs = designated_counts(values[-1], odd_only)[which]
    else:
        _refuse_over_budget(f"n = {values[-1]}", values[-1] + 1, None)
        coeffs = _SERIES[args.counter](values[-1] + 1).coeffs
    pairs = [(n, coeffs[n]) for n in values]
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
        _refuse_outside("--min-depth", args.min_depth, 0)
        _refuse_outside("--level", inst.level, most=_MAX_LEVEL)
        # a modulus below 2 is no ring to charge
        _refuse_outside("modulus u", args.u, 2)
        # the orbit runs over the 24 m residues mod 24 m and the cusp
        # bounds over m, so a step past the budget is refused before either
        _refuse_over_budget(f"--m {inst.m}", inst.m, args.u, weight=24)
        # the PDO_t map is read from the master series, as the
        # certificate table reads it; any other from a fresh c_r expansion
        source = (shifted_progression(inst.m, args.u)
                  if inst.r == PDO_T_EXPONENTS else None)

        def charge(depth, orbit):
            # the scan's expansion, whatever the cache holds: c_r to
            # m depth + max(orbit) + 1, or for the PDO_t map each series
            # of the plan of its master-series reads
            if source is None:
                sizes = [(inst.m * depth + orbit[-1] + 1, args.u)]
            else:
                *_, plan = master_plans(
                    shifted_reads(inst.m, orbit, depth + 1, args.u))
                sizes = plan.values()
            for size in sizes:
                _refuse_over_budget(f"depth {_written(depth)}", *size)

        cert = radu_verify(inst, aux, args.u, min_depth=args.min_depth,
                           progression=source, cost_guard=charge)
    except CriterionNotApplicable as exc:
        print(f"pdotq radu: criterion not applicable: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        raise _Refused(exc) from exc
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
    _refuse_outside("--level", args.level, most=_MAX_LEVEL)
    try:
        bound = sturm_bound(args.weight, args.level,
                            same_character=not args.different_character)
    except ValueError as exc:
        raise _Refused(exc) from exc
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
# every numeric flag of `check`, each accepted by the suites that name it
_CHECK_FLAGS = list(dict.fromkeys(
    flag for flags in _SUITE_FLAGS.values() for flag in flags))
# the suite parameters that are themselves the order of an expansion over Z
_EXACT_ORDERS = {"dissection": ("order", "binom_order")}

# (smallest, largest) value each numeric flag accepts, None for no bound.
# --p is checked by its suite, which rejects anything but a prime p == 5
# (mod 6), by trial division, and genfun forms 3^k, both before the budget
# sees a read: at the caps 10^6 steps and a 47,713-digit power.  Each k up
# to --kmax names steps and moduli of at least 0.3 k digits in its checks,
# so their names pass the digits budget near k = 2,450 (powers of 2) or
# 3,230 (powers of 3); the --kmax cap bounds that walk
_FLAG_RANGE = {"order": (1, None), "bound": (0, None), "k": (0, 100_000),
               "kmax": (0, 20_000), "nmax": (0, None),
               "p": (None, 10 ** 12), "ellmax": (0, None)}


def _refuse_suite_over_budget(suite: str, kwargs: dict):
    """Refuse running `suite` with `kwargs` if it would expand a master
    series, or for its exact orders a series over Z, past its budget, or
    name more digits in its checks than the digits budget: at the first
    read that takes either past it, before any further read."""
    for name in _EXACT_ORDERS.get(suite, ()):
        if name in kwargs:
            _refuse_over_budget(f"--suite {suite}", kwargs[name], None)
    last, named = {}, 0  # a read changes one series of the plan at most
    reads, requests = tee(suite_reads(suite, **kwargs))
    for read, plan in zip(reads, master_plans(requests)):
        for _, size in plan.items() - last.items():
            _refuse_over_budget(f"--suite {suite}", *size)
        # a check names its read's step, offset and modulus in decimal,
        # each in at most the digits of 2^b for a number of b bits
        named += sum(floor(n.bit_length() * log10(2)) + 1
                     for n in (read[0], read[1], read[3]) if n)
        if named > _MAX_DIGITS:
            raise _Refused(f"--suite {suite}: {named} digits of check names "
                           f"is over the budget of {_MAX_DIGITS} digits")
        last = plan


def _cmd_check(args) -> int:
    provided = {name: getattr(args, name) for name in _CHECK_FLAGS
                if getattr(args, name) is not None}
    if args.suite == "all":
        if provided:
            build_parser().error(
                "numeric flags only apply to a single suite")
        plan_master_series(chain.from_iterable(map(suite_reads, SUITES)))
        reports = [fn() for fn in SUITES.values()]
    else:
        flags = _SUITE_FLAGS[args.suite]
        unknown = sorted(set(provided) - set(flags))
        if unknown:
            build_parser().error(
                f"suite {args.suite!r} does not accept: "
                + ", ".join(f"--{u}" for u in unknown)
            )
        for name, value in provided.items():
            _refuse_outside(f"--{name}", value, *_FLAG_RANGE[name])
        kwargs = {flags[name]: value for name, value in provided.items()}
        try:
            _refuse_suite_over_budget(args.suite, kwargs)
            reports = [SUITES[args.suite](**kwargs)]
        except ValueError as exc:  # only for parameters a suite cannot take
            raise _Refused(exc) from exc
    passed = all(r.passed for r in reports)
    if args.json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps({"reports": [r.to_dict() for r in reports],
                              "passed": passed}, indent=2))
    else:
        for r in reports:
            print(r.to_text())
        if len(reports) > 1:
            print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _expand_arguments(parser):
    parser.add_argument("--eta", required=True,
                        help='quotient as "level;scalar;d1:r1,d2:r2"')
    parser.add_argument("--order", type=int, default=20,
                        help="number of coefficients (default 20)")
    parser.add_argument("--mod", type=int, default=None,
                        help="reduce coefficients modulo this")
    parser.add_argument("--json", action="store_true")


def _pdot_arguments(parser):
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--counter", choices=sorted(_COUNTERS),
                        default="pdo-tagged",
                        help="which statistic to evaluate "
                             "(default pdo-tagged)")
    parser.add_argument("--method", choices=("series", "enum"),
                        default="series",
                        help="generating function, or enum to count "
                             "from the multiplicity-profile table "
                             "(default series; pd-tagged always comes "
                             "from the table)")
    parser.add_argument("--json", action="store_true")


def _radu_arguments(parser):
    parser.add_argument("--m", type=int, required=True,
                        help="progression step")
    parser.add_argument("--t", type=int, required=True,
                        help="progression offset")
    parser.add_argument("--u", type=int, required=True,
                        help="target modulus")
    parser.add_argument("--rprime", required=True,
                        help='auxiliary exponents, e.g. "1:5"')
    parser.add_argument("--M", dest="big_m", type=int, default=12,
                        help="divisor bound for the exponent set "
                             "(default 12)")
    parser.add_argument("--level", type=int, default=12,
                        help="congruence subgroup level (default 12)")
    parser.add_argument("--r", default=None,
                        help="exponent set (default: the tagged-odd-part "
                             "generating function)")
    parser.add_argument("--min-depth", type=int, default=0,
                        help="check at least this many coefficients per "
                             "progression")
    parser.add_argument("--json", action="store_true")


def _sturm_arguments(parser):
    parser.add_argument("--weight", type=int, required=True)
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--different-character", action="store_true",
                        help="bound for comparing forms with different "
                             "characters")
    parser.add_argument("--json", action="store_true")


def _check_arguments(parser):
    parser.add_argument("--suite", required=True,
                        choices=sorted(SUITES) + ["all"])
    for flag in _CHECK_FLAGS:
        parser.add_argument(f"--{flag}", type=int, default=None)
    parser.add_argument("--json", action="store_true")


# subcommand -> (handler, help, the function that declares its arguments)
_COMMANDS = {
    "expand": (_cmd_expand, "expand an eta quotient as a q-series",
               _expand_arguments),
    "pdot": (_cmd_pdot, "count partitions with designated summands",
             _pdot_arguments),
    "radu": (_cmd_radu, "run one congruence verification certificate",
             _radu_arguments),
    "sturm": (_cmd_sturm, "print a Sturm bound", _sturm_arguments),
    "check": (_cmd_check, "run verification suites", _check_arguments),
}


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
    for name, (_, summary, declare) in _COMMANDS.items():
        declare(sub.add_parser(name, help=summary))
    return parser


@cache
def _command_parser(name) -> argparse.ArgumentParser:
    """Subcommand `name`'s own parser, equal to the full parser's one."""
    parser = argparse.ArgumentParser(prog=f"pdotq {name}")
    _COMMANDS[name][2](parser)
    return parser


def _parse(argv):
    """argv as parsed once, by its subcommand's parser alone; the full
    parser takes every other argv, and prints the errors it gets."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[args.command][0](args)
    except _Refused as exc:
        message = exc
    except MemoryError:
        # a request inside every budget can still pass a memory limit set
        # on the process (ulimit -v)
        message = "out of memory"
    print(f"pdotq {args.command}: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
