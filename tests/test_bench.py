"""bench/multiply.py imports private names of pdotq.series, so it is loaded
here: a backend renamed or removed without the script fails this test."""

import importlib.util
import random
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "multiply.py"


def test_multiply_bench_loads_and_its_backends_agree():
    spec = importlib.util.spec_from_file_location("bench_multiply", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = random.Random(7)
    for modulus in (None, 729):
        if modulus is None:
            a, b = bench.signed(rng, 300, 40), bench.signed(rng, 300, 40)
        else:
            a = [rng.randrange(modulus) for _ in range(300)]
            b = [rng.randrange(modulus) for _ in range(300)]
        row = {"operands": "dense"}
        assert bench.timed_row(row, bench.BACKENDS, a, b, 300, modulus, 1)
        assert set(row) == {"operands", "schoolbook_s", "decimal_s"}
    # the decode row times the program's decoder on the 3n division's
    # largest product
    row = bench.decode_row(rng, 1)
    assert row["fields"] == 57508 and row["decode_s"] > 0
    # the encoding rows count the 3n division's encodings, in both rings,
    # and leave the encoder in place
    encode = bench.series._decimal_operand
    rows = bench.encoding_rows(1)
    assert [row["modulus"] for row in rows] == [186624, 46656]
    assert all(row["encodings"] > 0 and row["newton_s"] > 0 for row in rows)
    assert bench.series._decimal_operand is encode
