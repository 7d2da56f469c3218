"""Time the multiply backends of pdotq.series.

    PYTHONPATH=src python3 bench/multiply.py [--repeats 5] [--seed 1]

Residue rows: for each length n and modulus M, two operands of length n
are multiplied to order n by schoolbook (`_mul_schoolbook`) and by the
decimal Kronecker backend (`_mul_decimal`).  Exact rows: the same over Z,
with signed operands as wide as PDO_t(n) (about 200 bits at n = 3500).
In both, the operands are either both dense and random, or f_1
(pentagonal-sparse, as in the Euler factors) against a dense one, and
the backends' products are checked equal.  Each row reports the best of
--repeats `perf_counter` timings per backend.  From order 32 up they
show dense operands multiplied faster by the decimal backend, which
`_mul_lists` takes for every product with more than
`_SPARSE_PAIRS_PER_COEFF` nonzero pairs per product coefficient, so for
dense operands from order 17.  Sparse rows: at n in 2000, 30000 and
115000 (mod 32 and 729, and over Z at 2000), Euler factor times
Euler factor, f_1 times an operand with random support sized for a given
number of nonzero pairs per product coefficient, and f_1 times a dense
operand, each by schoolbook and by the decimal backend, with the
nonzero-pair count beside them.  They are the evidence for
`_SPARSE_PAIRS_PER_COEFF`.
Series rows: one whole `pdo_t_series` expansion at each (order, modulus,
step) of SERIES_ROWS, best of --repeats, the layer that sits between one
multiply and a suite; step 3 is the 3n series that `check --suite all`
expands once.  Quotient rows: the `q_expansion` of the Sturm suite's
level-18 and level-36 quotients at the depths and modulus it expands
them to, best of --repeats; modulo the prime power 243, `eta_product`
lowers their exponents by the binomial congruence first.  Division rows:
the numerator phi(-q^3) f12^2 of the PDO_t quotient divided by each
denominator of DIVISION_ROWS, from the sparse phi(-q) to the dense f1^6,
at orders 250, 500, 1000, 3535 and 7600, over Z and mod 4, 32 and 256,
by the blocked recurrence (`_divide_sparse`, 32 quotient coefficients a
block, the far terms that share a coefficient summed in C) and by Newton
inversion to half the order and one Karp-Markstein step
(`_divide_newton`), with the denominator's nonzero count beside them;
best of --repeats, the quotients checked equal.  They are the evidence
for the nonzero-count limits at which `_divide_list` leaves the
recurrence (over Z a limit that grows with the order).  On a 2-core
x86-64 VM (Python 3.11, BENCH_25.json) the blocked recurrence beats
Newton over Z 3-6x on the rows of up to 143 terms at orders 3535 and
7600, and mod 32 and 256 on phi(-q) at 3535 (11 ms against 15-18); mod
4 Newton stays ahead on phi(-q) from order 1000 (2.0 ms against 1.3),
so no one residue limit is as fast on every row.  Workload division rows: the largest Newton-path
division of proof-all (the 3n series psi(q^2) f6^3 / phi(-q)^2 to order
38340 mod 186624) and of certify-batch (the PDO_t quotient
phi(-q^3) f12^2 / phi(-q) to order 7488 mod 128), by `_divide_newton`
and, where it finishes in seconds, by the recurrence.  Encoding rows:
the 3n division by `_divide_newton` to order 38340 mod 186624, the ring
of `check --suite all`'s 3n series, and mod 46656, the ring
`eta_product` expands it in since the scalar 4 of 4q psi(q^2) f6^3 /
phi(-q)^2 leaves nothing more of it; best of --repeats, with the operand
encodings one division makes (`_decimal_operand` calls) and the
coefficients they write.  Newton rows: the inverse of phi(-q)^2, the 3n
series' denominator, by `_divide_newton` dividing one (num None), at the
orders 2^k and 2^k + 1 of NEWTON_ROWS, mod 186624 and over Z, best of
--repeats.
Newton runs on the precisions ceil(order/2^k), so one more coefficient
past a power of two costs one more halving step; a schedule that doubled
up from 1 would pay a whole extra step of the full order there.  Decode
row: `_decode_fields` on DECODE_FIELDS random fields of DECODE_WIDTH
digits reduced mod 186624, the final product of the 3n division (den y
of 57,508 fields), best of --repeats.  The result is printed as one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

from pdotq import series
from pdotq.modforms import EtaQuotient, q_expansion
from pdotq.partitions import pdo_t_series
from pdotq.series import (
    _decode_fields, _divide_newton, _divide_sparse, _mul_decimal,
    _mul_schoolbook, _nonzero_count, eta_product, euler_factor, phi_minus,
)

# orders at which schoolbook still finishes, in every ring
SIZES = (32, 64, 96, 128, 256, 512, 1500, 3500)
MODULI = (2, 32, 243, 256, 729)
BACKENDS = (("schoolbook_s", _mul_schoolbook), ("decimal_s", _mul_decimal))
SPARSE_SIZES = (2000, 30000, 115000)
SPARSE_MODULI = (32, 729)
SPARSE_EXACT_SIZE = 2000
# f_1 against random support giving this many nonzero pairs per coefficient
PAIRS_PER_COEFF = (4, 16, 64)
# (order, modulus, step) of eta-product expansions at the suites' sizes:
# the full series, and the one 3n series of `check --suite all`
SERIES_ROWS = ((20001, 256, 1), (53137, 243, 1), (115237, 32, 1),
               (38341, 186624, 3))

# (level, exponents, order, modulus) of the Sturm suite's dissection-side
# quotients at its defaults k18 = 2 and k36 = 3: order 3^k (bound + 1)
QUOTIENT_ROWS = ((18, {1: 230, 2: 8, 3: -74}, 2223, 243),
                 (36, {1: 237, 2: 3, 3: -79, 6: 3}, 13311, 243))

# (name, exponents) of the division rows' denominators, sparse to dense,
# divided into the numerator phi(-q^3) f12^2 of the PDO_t quotient
DIVISION_ROWS = (("phi(-q)", {1: 2, 2: -1}), ("f1", {1: 1}),
                 ("f1^3", {1: 3}), ("phi(-q)^2", {1: 4, 2: -2}),
                 ("f1^2", {1: 2}), ("f1^6", {1: 6}))
DIVISION_NUMERATOR = {3: 2, 6: -1, 12: 2}
DIVISION_ORDERS = (250, 500, 1000, 3535, 7600)
DIVISION_MODULI = (None, 4, 32, 256)
# (workload, numerator, denominator, order, modulus) of the largest
# division on the Newton path in two perfbench workloads
WORKLOAD_DIVISION_ROWS = (
    ("proof-all", {2: -1, 4: 2, 6: 3}, {1: 4, 2: -2}, 38340, 186624),
    ("certify-batch", DIVISION_NUMERATOR, {1: 2, 2: -1}, 7488, 128),
)
# (order, modulus) of the encoding rows: the 3n division of proof-all, in
# the ring of the 3n series and in the one its scalar 4 leaves
ENCODING_ROWS = ((38340, 186624), (38340, 46656))
# the recurrence is timed only where nonzero terms times order stay below
RECURRENCE_STEPS = 5 * 10 ** 6
# (order, modulus) of the Newton rows: each power of two and the order
# one past it
NEWTON_ROWS = tuple((order, modulus)
                    for modulus, top in ((186624, 14), (None, 12))
                    for k in range(10, top + 1, 2)
                    for order in (2 ** k, 2 ** k + 1))
# the decode row: den y in the 3n division has 57,508 fields of 16 digits
DECODE_FIELDS = 57508
DECODE_WIDTH = 16
DECODE_MODULUS = 186624


def best_of(repeats, fn, *args):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def signed(rng, n, bits):
    """n integers of up to `bits` bits with random signs."""
    return [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n)]


def timed_row(row, backends, a, b, n, modulus, repeats):
    """Fill `row` with each backend's best time; False if they disagree."""
    products = []
    for key, fn in backends:
        row[key], out = best_of(repeats, fn, a, b, n, modulus)
        products.append(out)
    if any(out != products[0] for out in products):
        print(f"backends disagree at n={n} M={modulus} "
              f"({row['operands']})", file=sys.stderr)
        return False
    return True


def sparse_shapes(rng, n, modulus, bits):
    """(name, a, b) operand pairs for the sparse rows: nonzero values are
    residues mod `modulus`, or `bits`-bit signed integers over Z."""
    def value():
        if modulus is None:
            return signed(rng, 1, bits)[0] or 1
        return rng.randrange(1, modulus)

    f1 = list(euler_factor(1, 1, n, modulus).coeffs)
    shapes = [
        ("f1*f1", f1, f1),
        ("f3*f12", list(euler_factor(3, 1, n, modulus).coeffs),
         list(euler_factor(12, 1, n, modulus).coeffs)),
    ]
    for pairs in PAIRS_PER_COEFF:
        support = min(n, pairs * n // _nonzero_count(f1, n))
        other = [0] * n
        for i in rng.sample(range(n), support):
            other[i] = value()
        shapes.append((f"f1*sparse{pairs}", f1, other))
    shapes.append(("f1*dense", f1, [value() for _ in range(n)]))
    return shapes


def sparse_rows(rng, repeats, widths):
    rows = []
    cases = [(n, m) for n in SPARSE_SIZES for m in SPARSE_MODULI]
    cases.append((SPARSE_EXACT_SIZE, None))
    for n, modulus in cases:
        bits = widths[n].bit_length() if modulus is None else None
        for shape, a, b in sparse_shapes(rng, n, modulus, bits):
            pairs = _nonzero_count(a, n) * _nonzero_count(b, n)
            row = {"n": n, "modulus": modulus, "operands": shape,
                   "pairs": pairs, "pairs_per_coeff": round(pairs / n, 2)}
            if not timed_row(row, BACKENDS, a, b, n, modulus, repeats):
                return None
            rows.append(row)
    return rows


def series_rows(repeats):
    return [{"order": n, "modulus": modulus, "step": step,
             "pdo_t_series_s":
                 best_of(repeats, pdo_t_series, n, modulus, step)[0]}
            for n, modulus, step in SERIES_ROWS]


def quotient_rows(repeats):
    return [{"level": level, "exponents": exps,
             "order": n, "modulus": modulus,
             "q_expansion_s": best_of(repeats, q_expansion,
                                      EtaQuotient(level, exps), n, modulus)[0]}
            for level, exps, n, modulus in QUOTIENT_ROWS]


def division_rows(repeats):
    """Rows of recurrence and Newton division times; None if they differ."""
    rows = []
    backends = (("recurrence_s", _divide_sparse), ("newton_s", _divide_newton))
    for modulus in DIVISION_MODULI:
        for n in DIVISION_ORDERS:
            num = eta_product(DIVISION_NUMERATOR, n, modulus).coeffs
            for name, exponents in DIVISION_ROWS:
                den = eta_product(exponents, n, modulus).coeffs
                row = {"n": n, "modulus": modulus, "operands": name,
                       "nonzero": _nonzero_count(den, n)}
                if not timed_row(row, backends, num, den, n, modulus,
                                 repeats):
                    return None
                rows.append(row)
    return rows


def workload_division_rows(repeats):
    """Rows of the workloads' largest divisions; None if the paths differ."""
    rows = []
    for workload, numerator, denominator, n, modulus in WORKLOAD_DIVISION_ROWS:
        num = eta_product(numerator, n, modulus).coeffs
        den = eta_product(denominator, n, modulus).coeffs
        row = {"workload": workload, "n": n, "modulus": modulus,
               "operands": numerator, "denominator": denominator,
               "nonzero": _nonzero_count(den, n)}
        backends = [("newton_s", _divide_newton)]
        if row["nonzero"] * n <= RECURRENCE_STEPS:
            backends.append(("recurrence_s", _divide_sparse))
        if not timed_row(row, backends, num, den, n, modulus, repeats):
            return None
        rows.append(row)
    return rows


def encoding_rows(repeats):
    """The 3n division at each ENCODING_ROWS ring, with the number of
    operand encodings one division makes and the coefficients they
    write."""
    _, numerator, denominator, _, _ = WORKLOAD_DIVISION_ROWS[0]
    encode = series._decimal_operand
    rows = []
    for n, modulus in ENCODING_ROWS:
        num = eta_product(numerator, n, modulus).coeffs
        den = eta_product(denominator, n, modulus).coeffs
        spans = []

        def counted(coeffs, start, stop, *rest):
            spans.append(stop - start)
            return encode(coeffs, start, stop, *rest)

        series._decimal_operand = counted
        try:
            _divide_newton(num, den, n, modulus)
        finally:
            series._decimal_operand = encode
        rows.append({"n": n, "modulus": modulus, "operands": numerator,
                     "denominator": denominator, "encodings": len(spans),
                     "encoded_coeffs": sum(spans),
                     "newton_s": best_of(repeats, _divide_newton, num, den,
                                         n, modulus)[0]})
    return rows


def newton_rows(repeats):
    return [{"order": n, "modulus": modulus, "denominator": "phi(-q)^2",
             "invert_s": best_of(repeats, _divide_newton, None,
                                 (phi_minus(n, modulus) ** 2).coeffs, n,
                                 modulus)[0]}
            for n, modulus in NEWTON_ROWS]


def decode_row(rng, repeats):
    digits = "".join(str(rng.randrange(10 ** DECODE_WIDTH)).zfill(
        DECODE_WIDTH) for _ in range(DECODE_FIELDS))
    return {"fields": DECODE_FIELDS, "width": DECODE_WIDTH,
            "modulus": DECODE_MODULUS,
            "decode_s": best_of(repeats, _decode_fields, digits, DECODE_WIDTH,
                                DECODE_MODULUS, 0, False)[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rng = random.Random(args.seed)
    rows = []
    for n in SIZES:
        for modulus in MODULI:
            other = [rng.randrange(modulus) for _ in range(n)]
            shapes = {
                "dense": [rng.randrange(modulus) for _ in range(n)],
                "f1": list(euler_factor(1, 1, n, modulus).coeffs),
            }
            for shape, a in shapes.items():
                row = {"n": n, "modulus": modulus, "operands": shape}
                if not timed_row(row, BACKENDS, a, other, n, modulus,
                                 args.repeats):
                    return 1
                rows.append(row)
    exact_rows = []
    widths = pdo_t_series(max(SIZES) + 1).coeffs
    for n in SIZES:
        bits = widths[n].bit_length()
        other = signed(rng, n, bits)
        shapes = {"dense": signed(rng, n, bits),
                  "f1": list(euler_factor(1, 1, n).coeffs)}
        for shape, a in shapes.items():
            row = {"n": n, "bits": bits, "operands": shape}
            if not timed_row(row, BACKENDS, a, other, n, None,
                             args.repeats):
                return 1
            exact_rows.append(row)
    rows_sparse = sparse_rows(rng, args.repeats, widths)
    if rows_sparse is None:
        return 1
    rows_division = division_rows(args.repeats)
    rows_workload = workload_division_rows(args.repeats)
    if rows_division is None or rows_workload is None:
        return 1
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "rows": rows,
        "exact_rows": exact_rows,
        "sparse_rows": rows_sparse,
        "series_rows": series_rows(args.repeats),
        "quotient_rows": quotient_rows(args.repeats),
        "division_rows": rows_division,
        "workload_division_rows": rows_workload,
        "encoding_rows": encoding_rows(args.repeats),
        "newton_rows": newton_rows(args.repeats),
        "decode_row": decode_row(rng, args.repeats),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
