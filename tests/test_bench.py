"""bench/multiply.py calls private names of pdotq.series, so it is loaded
here: a backend renamed or removed without the script fails this test."""

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "multiply.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_multiply", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_multiply_bench_loads_and_its_backends_agree():
    bench = _bench()
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


def test_against_times_each_row_on_this_tree_and_another_in_turn():
    # this tree against itself: a second copy of series.py, loaded as a
    # module of its own, gives every time as the pair and their ratio
    bench = _bench()
    bench.TREES["against"] = bench.load_against(ROOT)
    assert bench.TREES["against"] is not bench.series
    rng = random.Random(11)
    a = [rng.randrange(729) for _ in range(300)]
    b = [rng.randrange(729) for _ in range(300)]
    row = {"operands": "dense"}
    assert bench.timed_row(row, bench.BACKENDS, a, b, 300, 729, 2)
    times = [row["schoolbook_s"], row["decimal_s"],
             bench.decode_row(rng, 2)["decode_s"]]
    for store in bench.store_rows(rng, 1):
        times += [store["from_list_s"], store["times_int_s"]]
    # the theta rows time every sparse base, in both rings
    rows = bench.theta_rows(1)
    assert len(rows) == 16
    times += [row["build_s"] for row in rows]
    for time in times:
        assert set(time) == {"this", "against", "ratio"}
        assert time["this"] > 0 and time["against"] > 0 and time["ratio"] > 0
    # a tree whose result differs stops the run
    bench.TREES["against"] = SimpleNamespace(_mul_decimal=lambda *_: [1])
    with pytest.raises(SystemExit, match="disagree in _mul_decimal"):
        bench.timed_row({}, bench.BACKENDS[1:], a, b, 300, 729, 1)
