"""Time the two Kronecker-substitution multiplies of pdotq.series.

    PYTHONPATH=src python3 bench/multiply.py [--repeats 5] [--seed 1]

For each length n and modulus M, two operands of length n are multiplied
to order n by the byte-packed backend (`_mul_packed`) and by the decimal
backend (`_mul_decimal`), and the two products are checked equal.  The
operands are either both dense and uniformly random, or f_1 (pentagonal-
sparse, as in the Euler factors) against a dense one.  Each row reports
the best of --repeats `perf_counter` timings per backend.  These rows are
the evidence for the order at which `_mul_lists` switches backends.  The
result is printed as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

from pdotq.series import _mul_decimal, _mul_packed, euler_factor

SIZES = (1000, 2000, 4000, 30000, 115000)
MODULI = (2, 32, 243, 256, 729)
BACKENDS = (("packed_s", _mul_packed), ("decimal_s", _mul_decimal))


def best_of(fn, a, b, n, modulus, repeats):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        out = fn(a, b, n, modulus)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, out


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
                products = []
                for key, fn in BACKENDS:
                    row[key], out = best_of(fn, a, other, n, modulus,
                                            args.repeats)
                    products.append(out)
                if products[0] != products[1]:
                    print(f"backends disagree at n={n} M={modulus} "
                          f"({shape})", file=sys.stderr)
                    return 1
                rows.append(row)
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "rows": rows,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
