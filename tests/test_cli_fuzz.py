"""Seeded fuzzing of the command line: every argv list, however small,
zero, negative, malformed or huge its values, must end in exit status 0, 1
or 2 with no exception escaping main, and an exit 2 from the program's own
checks (not from argparse) must print exactly one stderr line.

The cases run in one child process under an address-space cap, each under
its own alarm, so an input that allocates without bound or never ends fails
here instead of exhausting the machine or hanging the suite.  The KNOWN
cases also run each in a process of its own whose stdout is a closed pipe."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from pdotq.cli import _CHECK_FLAGS, SUITES

SRC = Path(__file__).resolve().parents[1] / "src"

# values of every kind but "just inside a budget", which may take seconds
SMALL = ["1", "2", "3", "5", "6", "12"]
# as a check flag 5 and 6 are just inside: `coexistence --kmax 6` expands
# the 3n series mod 3^9 to about 390,000 coefficients
CHECK_SMALL = ["1", "2", "3", "12"]
ZERO = ["0"]
NEGATIVE = ["-1", "-7"]
MALFORMED = ["", "1:", "x"]
HUGE = ["1000000000000", "1000000000000000003", str(10 ** 30)]
# each kind of value, and how often an int-like value is of that kind
KINDS = ((SMALL, 0.5), (ZERO, 0.1), (NEGATIVE, 0.1), (HUGE, 0.22),
         (MALFORMED, 0.08))

# the invocations that once hung, allocated without bound or ended in a
# traceback come first
KNOWN = [
    ["radu", "--m", "6", "--t", "2", "--u", "4", "--rprime", "1:5",
     "--level", "1000000000000000003"],
    ["sturm", "--weight", "2", "--level", "1000000000000000003"],
    ["expand", "--eta", "1000000007;1;1:24", "--order", "3", "--json"],
    ["radu", "--m", "999999", "--t", "0", "--u", "2", "--rprime", "1:5"],
    ["expand", "--eta", "2;1;1:-24000000000,2:12000000024",
     "--order", "2000"],
    ["radu", "--m", "48", "--t", "23", "--u", "32", "--rprime", "1:40",
     "--min-depth", "3000000"],
    ["radu", "--m", "6", "--t", "2", "--u", "4", "--rprime", "1:5", "--r",
     "1:-20000000,2:10000000,3:20000000,6:-10000000,12:20000000"],
    ["check", "--suite", "powers-of-two", "--kmax", "20000"],
    ["check", "--suite", "prime-family", "--p", "1000000007"],
    # a read count taken as len(range(...)) overflowed past 2^63
    ["check", "--suite", "powers-of-two", "--order", str(10 ** 30)],
    # a leading power past the order, once a tuple of 5 10^11 zeros
    ["expand", "--eta", "12;1;12:1000000000002", "--order", "3"],
    # 3^k formed, or p tested by trial division, before any budget
    ["check", "--suite", "genfun", "--k", "1000000000000", "--bound", "1"],
    ["check", "--suite", "prime-family", "--p", "1000000000000000031"],
    # one coefficient per read: only the moduli's digits grow with k
    ["check", "--suite", "coexistence", "--kmax", "1000000000000000003",
     "--bound", "0"],
    # the per-k moduli once built up to the first one too wide to write
    ["check", "--suite", "powers-of-two", "--kmax", "1000000000000",
     "--order", "2"],
    ["check", "--suite", "coexistence", "--kmax", "1000000000000000000",
     "--bound", "0"],
    ["check", "--suite", "powers-of-two", "--kmax", "20000", "--order",
     "2"],
    # inside every expansion budget, but a report of 330 MB of names
    ["check", "--suite", "powers-of-two", "--kmax", "14000", "--order",
     "2"],
    # an order that leaves a check no index: once PASS over nothing
    ["check", "--suite", "powers-of-two", "--kmax", "14"],
    ["check", "--suite", "powers-of-two", "--order", "1"],
    ["check", "--suite", "dissection", "--bound", "0"],
    # a budget that factored a prime modulus near 10^18 by trial division
    # before the leading power, or the nonnegativity, was checked
    ["expand", "--eta", "1;1;1:1000000000000000001", "--order", "3",
     "--mod", "1000000000000000003"],
    ["radu", "--m", "1", "--t", "0", "--u", "1000000000000000003", "--r",
     "1:1000000000000000000,2:-2000000000000000000,3:1000000000000000000",
     "--rprime", "1:5"],
    ["expand", "--eta", "1;1;1:24000000000000000000", "--order", "3",
     "--mod", "1000000000000000003"],
    # exponents of 101 bits, about 100 squarings at the full order
    ["expand", "--eta", "2;1;1:-2000000000000000000000000000000,"
     "2:1000000000000000000000000000012", "--order", "100000", "--mod",
     "186624"],
]


def _value(rng, small=SMALL):
    """An int-like flag value of a kind drawn by KINDS, small ones from
    `small`."""
    pools, weights = zip(*KINDS)
    pool = rng.choices(pools, weights)[0]
    return rng.choice(small if pool is SMALL else pool)


def _often(*plausible):
    """A maker of values that half the time are one of `plausible`, so a
    run gets past the parameter checks into the computation."""
    return lambda rng: (rng.choice(plausible) if rng.random() < 0.5
                        else _value(rng))


def _exponents(rng):
    if rng.random() < 0.15:
        return rng.choice(MALFORMED + ["1:2,1:3", "a:b", "0:1", "-2:1"])
    steps = rng.sample(["1", "2", "3", "4", "6", "12"], rng.randint(1, 3))
    return ",".join(f"{_often(d)(rng)}:{_often('-2', '1', '2', '5')(rng)}"
                    for d in steps)


def _eta(rng):
    if rng.random() < 0.15:
        return rng.choice(MALFORMED + ["1;2", "a;b;c", ";;"])
    if rng.random() < 0.3:
        # expandable quotients: PDO_t's and the discriminant
        return rng.choice(["12;1;1:-2,2:1,3:2,6:-1,12:2", "1;1;1:24"])
    return f"{_often('12')(rng)};{_often('1')(rng)};{_exponents(rng)}"


def _options(rng, flags, optional=()):
    """Every (flag, make-value) pair of `flags`, and each of `optional`
    with probability 1/2."""
    argv = []
    for flag, make in flags + [f for f in optional if rng.random() < 0.5]:
        argv += [flag, make(rng)]
    return argv


def generate(seed, count):
    """`count` argv lists for the five subcommands, from `seed`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        command = rng.choice(["expand", "pdot", "radu", "sturm", "check"])
        if command == "expand":
            argv = _options(rng, [("--eta", _eta)],
                            [("--order", _value), ("--mod", _value)])
        elif command == "pdot":
            argv = ["--n"] + [_value(rng) for _ in range(rng.randint(1, 3))]
            argv += _options(rng, [], [
                ("--counter", lambda r: r.choice(
                    ["pd", "pd-tagged", "pdo", "pdo-tagged", "x"])),
                ("--method", lambda r: r.choice(["series", "enum"]))])
        elif command == "radu":
            argv = _options(rng, [
                ("--m", _often("6", "12", "24")), ("--t", _often("0", "2")),
                ("--u", _often("2", "4", "8")), ("--rprime", _exponents)], [
                ("--M", _value), ("--level", _value), ("--r", _exponents),
                ("--min-depth", _value)])
        elif command == "sturm":
            argv = _options(rng, [("--weight", _value), ("--level", _value)])
            if rng.random() < 0.3:
                argv.append("--different-character")
        else:
            # any numeric flag goes to any suite, which most suites refuse
            argv = ["--suite", rng.choice(sorted(SUITES) + ["all", "x"])]
            for flag in rng.sample(_CHECK_FLAGS, rng.randint(0, 2)):
                argv += [f"--{flag}", _value(rng, CHECK_SMALL)]
        if rng.random() < 0.3:
            argv.append("--json")
        out.append([command] + argv)
    return out


# runs each argv through main, capturing its output, and writes one JSON
# result per case: (exit status or None, escaped exception or None,
# whether argparse raised the exit, stderr line count)
CHILD = r"""
import contextlib, io, json, resource, signal, sys
from pdotq.cli import main

cap, alarm = int(sys.argv[1]), float(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

class Alarm(Exception):
    pass

def ring(signum, frame):
    raise Alarm(f"still running after {alarm} s")

signal.signal(signal.SIGALRM, ring)
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    code = escaped = None
    parsed = True
    signal.setitimer(signal.ITIMER_REAL, alarm)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code, parsed = exc.code, False
    except BaseException as exc:
        escaped = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([code, escaped, parsed, err.getvalue().count("\n")])
print(json.dumps(results))
"""


def test_every_argv_exits_0_1_or_2_without_a_traceback():
    cases = KNOWN + generate(seed=20261019, count=400)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(2_000_000 * 1024), "10"],
        input=json.dumps(cases), capture_output=True, text=True, env=env,
        timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    results = json.loads(child.stdout)
    assert len(results) == len(cases)
    for argv, (code, escaped, parsed, lines) in zip(cases, results):
        assert escaped is None, (argv, escaped)
        assert code in (0, 1, 2), (argv, code)
        if code == 2 and parsed:
            assert lines == 1, (argv, lines)
    # the generator reaches every status, and argparse as well as the
    # program's own checks
    assert {code for code, *_ in results} == {0, 1, 2}
    assert {parsed for _, _, parsed, _ in results} == {True, False}


def test_known_argv_into_a_closed_pipe_ends_without_a_traceback():
    import resource

    def capped():
        cap = 2_000_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    # each in its own process, so that the interpreter's flush at exit
    # runs too, into a pipe whose read end is closed before it starts
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in KNOWN:
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "pdotq.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, text=True, env=env,
                preexec_fn=capped, timeout=60)
        finally:
            os.close(write)
        assert child.returncode in (0, 1, 2), (argv, child.returncode)
        assert "Traceback" not in child.stderr, (argv, child.stderr)
        assert child.stderr.count("\n") <= 1, (argv, child.stderr)
