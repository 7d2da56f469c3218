"""Workload inputs, reference values and output checks.

Each workload is a list of jobs, one `pdotq` argument vector each, made
from the seed alone.  References are computed here with a sparse
Euler-product recurrence that shares no code with the program, so a
wrong multiply or inversion inside the program shows up as a mismatch.

This module imports nothing from the program, so the benchmark's parent
process never loads it.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

WORKLOADS = ("proof-all", "certify-batch", "exact-values")

# sum pdo_t(n) q^(n-1) = f2 f3^2 f12^2 / (f1^2 f6); radu's default exponents
C_R_EXPONENTS = {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}

# (m, t, r'_1, depth, u) rows of the program's certificate table with m <= 96
TABLE_ROWS = [
    (6, 2, 5, 6, 4), (6, 5, 5, 6, 8),
    (12, 2, 10, 11, 4), (12, 5, 10, 11, 8),
    (12, 8, 10, 10, 4), (12, 11, 10, 10, 16),
    (24, 5, 20, 20, 8), (24, 11, 20, 20, 16),
    (24, 17, 20, 20, 8), (24, 23, 20, 20, 32),
    (48, 11, 40, 40, 16), (48, 23, 40, 39, 32),
    (48, 35, 40, 39, 16), (48, 47, 40, 39, 64),
    (96, 23, 80, 78, 32), (96, 47, 80, 78, 64),
    (96, 71, 80, 77, 32), (96, 95, 80, 77, 128),
]

GRID_M = (6, 12, 24, 48, 96)
GRID_RPRIME = (5, 10, 20, 40, 80)
GRID_U = tuple(2 ** k for k in range(1, 9))

NOT_APPLICABLE = "criterion not applicable"

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text())


def _pentagonal(step: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms (index, sign) of f_step below q^order, index > 0,
    in increasing index order."""
    terms = []
    k = 1
    while step * k * (3 * k - 1) // 2 < order:
        sign = -1 if k % 2 else 1
        for idx in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if idx < order:
                terms.append((idx, sign))
        k += 1
    return sorted(terms)


def eta_product(exponents: dict[int, int], order: int, modulus=None):
    """prod f_step^exponent to `order` coefficients, over Z or Z/modulus.

    Multiplying by f_step adds shifted copies of the series, one per
    pentagonal term; dividing solves g f_step = a term by term.  Both are
    O(order * sqrt(order)) and need no inversion of a unit.
    """
    a = [1] + [0] * (order - 1)
    for step, exponent in sorted(exponents.items()):
        terms = _pentagonal(step, order)
        for _ in range(abs(exponent)):
            if exponent > 0:
                out = a[:]
                for idx, sign in terms:
                    out[idx:] = [x + sign * y for x, y in zip(out[idx:], a)]
                a = out if modulus is None else [c % modulus for c in out]
            else:
                for n in range(1, order):
                    acc = a[n]
                    for idx, sign in terms:
                        if idx > n:
                            break
                        acc -= sign * a[n - idx]
                    a[n] = acc if modulus is None else acc % modulus
    return a


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs and references


def _proof_all(rng, smoke):
    if smoke:
        argv = ["check", "--suite", "genfun", "--k", "0", "--bound", "30",
                "--json"]
    else:
        argv = ["check", "--suite", "all", "--json"]
    return [argv], {"digest": DIGESTS[" ".join(argv)]}


def _radu_order(m: int, rprime: int, depth: int) -> int:
    """An upper bound on the expansion order radu needs for an instance:
    floor(nu) <= (24 (2 + r') - r') / 24 at level 12 (index 24)."""
    nu = (24 * (2 + rprime) - rprime) // 24
    return m * max(nu, depth) + m + 1


def _certify_batch(rng, smoke):
    # Each (m, r'_1) cell gets the same number of draws, spread evenly over
    # the residues of t mod gcd(m, 8).  On this grid whether the criterion
    # applies depends on t only through that residue (for m = 96 only
    # t == 7 mod 8 passes Delta*), and only instances it applies to expand
    # a series; so the share of costly instances, and with it the cost of
    # a pass, is the same for every seed.  t within its class and u vary.
    draws = 8 if smoke else 16
    grid_m = GRID_M[:2] if smoke else GRID_M
    rows = [row for row in TABLE_ROWS if row[0] in grid_m]
    jobs, kinds = [], []
    order = 1
    for m, t, rp1, depth, u in rows:
        jobs.append(["radu", "--m", str(m), "--t", str(t), "--u", str(u),
                     "--rprime", f"1:{rp1}", "--min-depth", str(depth),
                     "--json"])
        kinds.append("table")
        order = max(order, _radu_order(m, rp1, depth))
    sample = []
    for m in grid_m:
        classes = gcd(m, 8)
        for rp1 in GRID_RPRIME:
            for i in range(draws):
                t = i % classes + classes * rng.randrange(m // classes)
                sample.append((m, t, rp1, rng.choice(GRID_U)))
            order = max(order, _radu_order(m, rp1, 0))
    rng.shuffle(sample)
    for m, t, rp1, u in sample:
        jobs.append(["radu", "--m", str(m), "--t", str(t), "--u", str(u),
                     "--rprime", f"1:{rp1}", "--json"])
        kinds.append("sample")
    return jobs, {"kinds": kinds,
                  "c_r_mod256": eta_product(C_R_EXPONENTS, order, 256)}


# largest n of each series query: a centre plus a seeded jitter of +-1 %,
# so that the pass cost hardly depends on the seed
EXACT_CENTRES = (1500, 2500, 3500)
SMOKE_CENTRES = (150, 250)
ENUM_TOP = 45


def _exact_values(rng, smoke):
    jobs = []
    top = 0
    for centre in SMOKE_CENTRES if smoke else EXACT_CENTRES:
        n_max = centre + rng.randint(-centre // 100, centre // 100)
        top = max(top, n_max)
        jobs.append(["pdot", "--n"] + [str(n) for n in range(n_max + 1)]
                    + ["--json"])
    enum_top = 20 if smoke else ENUM_TOP
    for _ in range(2):
        picks = sorted(rng.sample(range(enum_top + 1), 10))
        jobs.append(["pdot", "--n"] + [str(n) for n in picks]
                    + ["--method", "enum", "--json"])
    rng.shuffle(jobs)
    return jobs, {"pdo_t": [0] + eta_product(C_R_EXPONENTS, top)}


_GENERATORS = {
    "proof-all": _proof_all,
    "certify-batch": _certify_batch,
    "exact-values": _exact_values,
}


def generate(workload: str, seed: int, smoke: bool = False):
    """(jobs, refs) for one workload; the same seed gives the same jobs.
    proof-all runs the paper's fixed defaults, so its seed changes nothing."""
    return _GENERATORS[workload](random.Random(seed), smoke)


# ---------------------------------------------------------------------------
# checks: each returns one error string per failed job, keyed by job index


def _check_proof_all(jobs, outputs, refs):
    errors = {}
    for i, out in enumerate(outputs):
        if out["tb"] or out["rc"] != 0:
            errors[i] = f"exit {out['rc']}"
            continue
        try:
            report = json.loads(out["stdout"])
        except ValueError:
            errors[i] = "stdout is not JSON"
            continue
        failed = [c["name"] for r in report.get("reports", [report])
                  for c in r["checks"] if c["status"] != "pass"]
        if failed or not report.get("passed"):
            errors[i] = f"failed checks: {failed}"
        elif digest(out["stdout"]) != refs["digest"]:
            errors[i] = "stdout digest differs from the recorded one"
    return errors


def _check_certificate(argv, out, kind, ref):
    if out["tb"]:
        return "traceback"
    if out["rc"] == 1 and NOT_APPLICABLE in out["stderr"]:
        return "table row not applicable" if kind == "table" else None
    if out["rc"] not in (0, 1):
        return f"exit {out['rc']}"
    try:
        cert = json.loads(out["stdout"])
    except ValueError:
        return "stdout is not a certificate"
    m, u = int(argv[argv.index("--m") + 1]), int(argv[argv.index("--u") + 1])
    if (cert["m"], cert["u"]) != (m, u):
        return "certificate is for another instance"
    if cert["verdict"] != (out["rc"] == 0):
        return "exit status disagrees with the verdict"
    for t_prime, n in cert["checked"]:
        if ref[m * n + t_prime] % u:
            return f"coefficient {m * n + t_prime} checked as 0 but is not"
    if cert["verdict"]:
        depth = cert["floor_nu"]
        if "--min-depth" in argv:
            depth = max(depth, int(argv[argv.index("--min-depth") + 1]))
        if len(cert["checked"]) != len(cert["p_set"]) * (depth + 1):
            return "PASS without checking every coefficient to the bound"
        return None
    if kind == "table":
        return "table row FAILed"
    fail = cert["failure"]
    idx = fail["index"]
    if idx != m * fail["n"] + fail["t"] or ref[idx] % u == 0:
        return f"FAIL at index {idx}, which is 0 mod {u}"
    if fail["residue"] != ref[idx] % u:
        return f"FAIL records the wrong residue at index {idx}"
    return None


def _check_certify_batch(jobs, outputs, refs):
    errors = {}
    for i, (argv, out, kind) in enumerate(zip(jobs, outputs, refs["kinds"])):
        err = _check_certificate(argv, out, kind, refs["c_r_mod256"])
        if err:
            errors[i] = err
    return errors


def _check_exact_values(jobs, outputs, refs):
    # exact equality with the reference implies the mod-256 agreement with
    # a residue expansion; prefix and enumeration agreement are checked too
    ref = refs["pdo_t"]
    errors = {}
    series_values, enum_values = {}, []
    for i, (argv, out) in enumerate(zip(jobs, outputs)):
        if out["tb"] or out["rc"] != 0:
            errors[i] = f"exit {out['rc']}"
            continue
        try:
            pairs = json.loads(out["stdout"])["values"]
        except (ValueError, KeyError):
            errors[i] = "stdout is not a value list"
            continue
        wanted = sorted({int(a) for a in argv[2:] if a.isdigit()})
        if [n for n, _ in pairs] != wanted:
            errors[i] = "values for other n than asked"
            continue
        bad = next((n for n, c in pairs if c != ref[n]), None)
        if bad is not None:
            errors[i] = f"pdo_t({bad}) differs from the reference"
            continue
        if "enum" in argv:
            enum_values.append((i, pairs))
            continue
        for n, c in pairs:
            if series_values.setdefault(n, c) != c:
                errors[i] = f"pdo_t({n}) differs between queries"
                break
    for i, pairs in enum_values:
        bad = next((n for n, c in pairs if series_values.get(n, c) != c), None)
        if bad is not None:
            errors[i] = f"enumeration and series differ at n={bad}"
    return errors


_CHECKS = {
    "proof-all": _check_proof_all,
    "certify-batch": _check_certify_batch,
    "exact-values": _check_exact_values,
}


def check(workload: str, jobs, outputs, refs) -> dict[int, str]:
    """Check every job's output; outputs are dicts with rc, stdout, stderr
    and tb (a traceback string, or None)."""
    return _CHECKS[workload](jobs, outputs, refs)
