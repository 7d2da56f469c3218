"""Tests of the benchmark itself: span arithmetic, output checks, and a
smoke-size run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from child import run_job  # noqa: E402
from pdotq import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, coeffs=None, outcome=None):
    return [name, start, end, parent, coeffs, outcome]


def test_self_time_on_synthetic_tree():
    tree = [
        span("cli.main", 0.0, 10.0),                 # 0
        span("verify.master_series", 1.0, 4.0, 0),   # 1
        span("partitions.pdo_t_series", 1.5, 3.5, 1),  # 2
        span("series.mul.residue", 2.0, 3.0, 2, 5000),  # 3
        span("verify.master_series", 5.0, 6.0, 0),   # 4
        span("radu.radu_verify", 7.0, 10.5, 0, None, "pass"),  # 5
    ]
    # the last child runs past its parent's end; only 7..10 counts
    assert spans.self_times(tree) == pytest.approx(
        [10 - 3 - 1 - 3, 3 - 2, 2 - 1, 1, 1, 3.5])
    metrics = spans.layer_metrics(tree, overhead_s=0.25)
    assert metrics["verify.master_series.calls"] == 2
    assert metrics["verify.master_series.fresh"] == 1
    assert metrics["verify.master_series.served"] == 1
    assert metrics["verify.master_series.reuse_ratio"] == 0.5
    assert metrics["verify.master_series.total_s"] == pytest.approx(4.0)
    assert metrics["series.mul.residue.mid.self_s"] == pytest.approx(1.0)
    assert metrics["series.mul.residue.small.self_s"] == 0
    assert metrics["partitions.pdo_t_series.coeffs"] == 0
    assert metrics["radu.verdict.pass"] == 1
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["trace.overhead_s"] == 0.25

    # calibration samples inside the multiply, between cli.main's children
    # and inside radu_verify leave those spans' self time
    samples = [(2.2, 2.4), (4.5, 4.6), (8.0, 8.5)]
    parents = [s[spans.PARENT]
               for s in spans.with_calibration(tree, samples)[len(tree):]]
    assert parents == [3, 0, 5]
    scaled = spans.layer_metrics(tree, samples, scale=2.0)
    assert scaled["series.mul.residue.self_s"] == pytest.approx(2 * 0.8)
    assert scaled["cli.main.self_s"] == pytest.approx(2 * 2.9)
    assert scaled["radu.radu_verify.self_s"] == pytest.approx(2 * 3.0)
    assert scaled["radu.radu_verify.calls"] == 1


def test_per_layer_table_matches_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == spans.PER_LAYER


def test_tracing_restores_the_program():
    tracer = spans.Tracer()
    before = (cli.main, cli.SUITES["genfun"], cli._COUNTERS["pdo-tagged"])
    uninstall = spans.install(tracer)
    try:
        assert cli.main is not before[0]
        assert cli._COUNTERS["pdo-tagged"] is not before[2]
        out = run_job(cli, ["pdot", "--n", "5", "40", "--json"])
    finally:
        uninstall()
    assert (cli.main, cli.SUITES["genfun"],
            cli._COUNTERS["pdo-tagged"]) == before
    reference = workloads.eta_product(workloads.C_R_EXPONENTS, 40)
    assert json.loads(out["stdout"])["values"] == [[5, reference[4]],
                                                   [40, reference[39]]]
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "partitions.pdo_t_series", "series.invert.exact",
            "series.mul.exact", "series.euler_factor"} <= names


def test_reference_expansion_matches_enumeration():
    from pdotq.partitions import pdo_t

    exact = workloads.eta_product(workloads.C_R_EXPONENTS, 30)
    assert [0] + exact[:29] == [pdo_t(n) for n in range(30)]
    assert workloads.eta_product(workloads.C_R_EXPONENTS, 30, 256) == [
        c % 256 for c in exact]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_is_counted(workload):
    jobs, refs = workloads.generate(workload, seed=5, smoke=True)
    outputs = [run_job(cli, argv) for argv in jobs]
    assert workloads.check(workload, jobs, outputs, refs) == {}

    victim = next(i for i, o in enumerate(outputs) if o["rc"] == 0)
    bad = dict(outputs[victim])
    if workload == "exact-values":
        data = json.loads(bad["stdout"])
        data["values"][-1][1] += 256  # right mod 256, wrong as an integer
        bad["stdout"] = json.dumps(data)
    elif workload == "certify-batch":
        cert = json.loads(bad["stdout"])
        cert["checked"].append([cert["p_set"][0], 1])  # a deeper claim
        bad["stdout"] = json.dumps(cert)
    else:
        bad["stdout"] = bad["stdout"].replace('"pass"', '"pass" ', 1)
    corrupted = outputs[:victim] + [bad] + outputs[victim + 1:]
    errors = workloads.check(workload, jobs, corrupted, refs)
    assert list(errors) == [victim]


def test_failed_runs_are_errors():
    jobs, refs = workloads.generate("certify-batch", seed=5, smoke=True)
    outputs = [{"rc": 2, "stdout": "", "stderr": "usage", "tb": None},
               {"rc": None, "stdout": "", "stderr": "", "tb": "Traceback"}]
    errors = workloads.check("certify-batch", jobs[:2], outputs, refs)
    assert sorted(errors) == [0, 1]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    done = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in ("wall_s", "peak_rss_mib", "setup_s", "error_rate",
                     "ops"):
            assert any(line.startswith(name + " ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "proof-all", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
