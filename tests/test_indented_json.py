"""`pdotq.indented_json` writes exactly what json.dumps(obj, indent=2)
writes: for seeded random nested values, and at each of its call sites."""

import json
import random
from fractions import Fraction

import pytest

from pdotq import indented_json

# strings json escapes (quotes, backslashes, control characters, non-ASCII
# inside and outside the basic plane) and strings it leaves alone
STRINGS = ["", "a", 'say "hi"', "back\\slash", "tab\tnew\nline\r",
           "\x00\x01\x1f\x7f", "café", "  ", "\U0001d11e",
           "p_mr", "-10/3", "{not: json}", "[1, 2]"]
INTS = [0, 1, -1, 2 ** 63, -(2 ** 63) - 1, 10 ** 399, -(10 ** 399) + 7]
LEAVES = STRINGS + INTS + [True, False, None]
KEYS = STRINGS + INTS + [True, False, None]


def _value(rng, depth):
    """A random leaf, or below depth 4 often a dict, list or tuple of up
    to five random values, empty ones included."""
    kind = rng.random()
    if depth >= 4 or kind < 0.4:
        return rng.choice(LEAVES)
    items = [_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    if kind < 0.6:
        return items
    if kind < 0.75:
        return tuple(items)
    return {rng.choice(KEYS): item for item in items}


def test_random_values_give_json_text_byte_for_byte():
    rng = random.Random(20261020)
    shapes = set()
    for _ in range(3000):
        value = _value(rng, 0)
        assert indented_json(value) == json.dumps(value, indent=2), value
        shapes.add(type(value))
    assert shapes == {str, int, bool, type(None), list, tuple, dict}


def test_empty_containers_and_every_leaf_and_key():
    for value in ([], (), {}, [[]], {"a": {}}, [(), [{}]], *LEAVES,
                  {key: key for key in KEYS}, list(LEAVES), tuple(LEAVES)):
        assert indented_json(value) == json.dumps(value, indent=2), value


def test_other_leaves_and_keys_are_written_by_json():
    class Name(str):
        pass

    class Count(int):
        def __repr__(self):
            return "not json"

    values = [1.5, -0.0, float("inf"), float("nan"), Name("x"), Count(3),
              {1.5: [Name('q"'), Count(-2)], Name("k"): 2.0, Count(4): ()},
              [{float("-inf"): None}]]
    for value in values:
        assert indented_json(value) == json.dumps(value, indent=2), value
    # and what json refuses, it refuses
    for value in ({(1, 2): 0}, [Fraction(1, 3)], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            indented_json(value)


def test_report_to_json_is_json_text():
    from pdotq.verify import Report, sturm_suite

    report = Report("demo", {"x": 1, "y": None}, [])
    report.add("ok", True, 'a "quoted" detail')
    report.add("bad", False)
    for r in (report, Report("empty", {}), sturm_suite()):
        assert r.to_json() == json.dumps(r.to_dict(), indent=2)


def test_certificate_to_json_is_json_text():
    from pdotq.partitions import PDO_T_EXPONENTS
    from pdotq.radu import AuxExponents, RaduInstance, _frac_str, radu_verify

    certs = []
    for m, t, u, rp1 in ((6, 2, 4, 5), (24, 23, 32, 20), (6, 2, 8, 5)):
        inst = RaduInstance(m=m, M=12, level=12, r=dict(PDO_T_EXPONENTS),
                            t=t)
        certs.append(radu_verify(inst, AuxExponents(12, {1: rp1}), u))
    assert [c.verdict for c in certs] == [True, True, False]
    for cert in certs:
        payload = {**cert._asdict(), "nu": _frac_str(cert.nu)}
        assert cert.to_json() == json.dumps(payload, indent=2)


def test_expand_and_check_all_print_json_text(capsys, monkeypatch):
    from pdotq import cli
    from pdotq.modforms import modularity_check, q_expansion
    from pdotq.verify import Report

    eta = "12;1;1:-2,2:1,3:2,6:-1,12:2"
    for mod in (None, 256):
        argv = ["expand", "--eta", eta, "--order", "300", "--json"]
        assert cli.main(argv + (["--mod", str(mod)] if mod else [])) == 0
        eq = cli.parse_eta_quotient(eta)
        payload = {"eta": eta, "order": 300, "mod": mod,
                   "holomorphic": modularity_check(eq).ok,
                   "coefficients": list(q_expansion(eq, 300, mod).coeffs)}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    # the parsers take their --suite choices from the suites when built
    cli.build_parser()
    cli._command_parser("check")
    good, bad = Report("alpha", {"k": 2}), Report("beta", {})
    good.add("a", True, "fine")
    bad.add("b", False, "broken\tat 3")
    monkeypatch.setattr(cli, "SUITES", {"alpha": lambda: good,
                                        "beta": lambda: bad})
    assert cli.main(["check", "--suite", "all", "--json"]) == 1
    want = {"reports": [good.to_dict(), bad.to_dict()], "passed": False}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
