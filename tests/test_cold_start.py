"""`import pdotq.cli` loads none of the stdlib modules that records,
signatures and annotations once pulled in, so that every `pdotq` process
starts without them, nor `array`, which only residue-ring work needs.

Run as a script, `PYTHONPATH=src python -S tests/test_cold_start.py`, this
file imports pdotq.cli after nothing but `sys` and exits 1 naming any of
those modules that it finds loaded, then runs `pdotq pdot --n 2000`, an
expansion over Z, and exits 1 if that loaded `array`; the test runs it so
in a subprocess.
`-S` keeps the `.pth` files of site-packages, one of which may import
`typing`, from hiding a regression.
"""

import sys

# dataclasses loads inspect, ast, dis, tokenize, linecache and copy.
# array is imported with the first residue vector: loaded before the 3n
# expansion, it raised the peak of pdo_t_series(300000, 2187, 3) from 43 to
# 46 MiB in 3 of 3 runs
NOT_AT_START_UP = {"dataclasses", "inspect", "typing", "ast", "dis",
                   "tokenize", "linecache", "copy", "array"}


def test_cli_import_loads_no_record_or_signature_machinery():
    import os
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run([sys.executable, "-S", __file__],
                           env=dict(os.environ, PYTHONPATH=str(src)),
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")


if __name__ == "__main__":
    import pdotq.cli  # noqa: F401

    loaded = sorted(NOT_AT_START_UP & set(sys.modules))
    if loaded:
        sys.exit(f"import pdotq.cli loaded {', '.join(loaded)}")
    if pdotq.cli.main(["pdot", "--n", "2000"]) != 0 or "array" in sys.modules:
        sys.exit("pdotq pdot --n 2000 failed or loaded array")
