"""`import pdotq.cli` loads none of the stdlib modules that records,
signatures and annotations once pulled in, so that every `pdotq` process
starts without them.

Run as a script, `PYTHONPATH=src python -S tests/test_cold_start.py`, this
file imports pdotq.cli after nothing but `sys` and exits 1 naming any of
those modules that it finds loaded; the test runs it so in a subprocess.
`-S` keeps the `.pth` files of site-packages, one of which may import
`typing`, from hiding a regression.
"""

import sys

# dataclasses loads inspect, ast, dis, tokenize, linecache and copy
NOT_AT_START_UP = {"dataclasses", "inspect", "typing", "ast", "dis",
                   "tokenize", "linecache", "copy"}


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
