"""Benchmark of the pdotq command line, end to end and per layer.

    python3 perfbench/run.py --workload proof-all --seed 1 --seconds 30

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory.  Inputs come from --seed.  Each pass of a workload
runs in a fresh child process (perfbench/child.py) with no threads, so
the program's caches start cold and the peak RSS is the pass's own.
Passes repeat for about --seconds (at least one).

--trace 0 prints wall_s, peak_rss_mib and setup_s (medians over the
run's passes and set-up samples), plus error_rate and ops.  --trace 1
runs each pass twice, untraced and traced, checks that the program's
output is byte-identical, and prints every per-layer metric.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Times are in reference seconds: each measured interval, less the time
spent in calibration samples, is multiplied by REFERENCE_KERNEL_S over
the mean calibration sample taken in the same process during the
interval (see child.py).  Raw wall-clock medians are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170
MIN_SETUP_SAMPLES = 11
# duration of child.calibration_kernel that defines one reference second:
# about its mean during passes on the 2-core x86-64 VM (Python 3.11) it
# was set on, so that reference seconds read close to wall seconds there
REFERENCE_KERNEL_S = 6.5e-4

END_TO_END = (("wall_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))


class HarnessError(RuntimeError):
    """A child could not run its pass; no result can be reported."""


def to_reference(seconds, calibration_s, mean_sample_s):
    return (seconds - calibration_s) * REFERENCE_KERNEL_S / mean_sample_s


class Pass:
    """One child's set-up and, unless set-up only, its pass result."""

    def __init__(self, setup_raw, startup, result):
        self.setup_raw = setup_raw
        self.setup_s = to_reference(setup_raw, *startup)
        self.result = result
        if result is not None:
            count, total, mean = result["calibration"]
            # a pass too short for the timer uses the start-up samples
            mean = mean if count else startup[1]
            self.scale = REFERENCE_KERNEL_S / mean
            self.wall_s = to_reference(result["wall_s"], total, mean)


def spawn(request, deadline):
    """Start a child, time its set-up, hand it `request` (None: set-up
    only) and return a Pass."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports as users see them
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")],
                            cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_raw = time.perf_counter() - started
        if not line.startswith("ready "):
            raise HarnessError("child did not import the program")
        startup = [float(x) for x in line.split()[1:]]
        text = json.dumps(request) if request is not None else ""
        out, _ = proc.communicate(
            text, timeout=max(0.0, deadline - time.perf_counter()))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"child stopped: {exc}") from exc
    if proc.returncode != 0:
        raise HarnessError(f"child exited with status {proc.returncode}")
    return Pass(setup_raw, startup,
                json.loads(out) if request is not None else None)


def source_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the program's source files, which names the code
    measured even in a checkout without git."""
    files = sorted((ROOT / "src").rglob("*.py"))
    return workloads.digest("".join(
        f"{p.relative_to(ROOT)}\n{p.read_text()}" for p in files))


def provenance(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} "
                    f"{platform.machine()}",
        "git_commit": source_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": "shared with other jobs; no CPU pinning, no kernel or "
                   "cgroup settings, no cache dropping",
    }


def run(args):
    """Every pass of one benchmark run; returns the report lines, the
    error messages and the result object."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    jobs, refs = workloads.generate(args.workload, args.seed, args.smoke)
    request = {"workload": args.workload, "jobs": jobs, "refs": refs,
               "trace": False}
    spawn(None, deadline)  # warm-up: byte-compile and load files, untimed

    plain, traced, setups = [], [], []
    measure_until = time.perf_counter() + args.seconds
    while True:
        pass_started = time.perf_counter()
        plain.append(spawn(request, deadline))
        setups.append(plain[-1])
        if args.trace:
            traced.append(spawn(dict(request, trace=True), deadline))
        now = time.perf_counter()
        # stop rather than start a pass expected to end more than half a
        # pass after --seconds, or after the time limit
        last = now - pass_started
        if now + last / 2 >= measure_until or now + last > deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(None, deadline))

    passes = plain + traced
    failures = {}  # (pass, job) -> messages; a job fails at most once
    for p, ps in enumerate(passes):
        for j, msg in ps.result["errors"].items():
            failures.setdefault((p, int(j)), []).append(msg)
    for p, (a, b) in enumerate(zip(plain, traced), start=len(plain)):
        for j, (x, y) in enumerate(zip(a.result["outputs"],
                                       b.result["outputs"])):
            if x != y:
                failures.setdefault((p, j), []).append(
                    "traced output differs from untraced")
    errors = [f"pass {p}, job {j}: {'; '.join(msgs)}"
              for (p, j), msgs in sorted(failures.items())]
    attempted = len(jobs) * len(passes)
    failed = len(failures)

    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "provenance: " + json.dumps(provenance(args))]
    metrics = {}
    if not args.trace:
        def median(get, items):
            return statistics.median(get(p) for p in items)

        values = {
            "wall_s": (median(lambda p: p.wall_s, plain),
                       f"median of {len(plain)} passes; raw wall "
                       f"{median(lambda p: p.result['wall_s'], plain):.4f} s"),
            "peak_rss_mib": (
                median(lambda p: p.result["peak_rss_kib"], plain) / 1024,
                f"median of {len(plain)} passes"),
            "setup_s": (median(lambda p: p.setup_s, setups),
                        f"median of {len(setups)} spawns; raw "
                        f"{median(lambda p: p.setup_raw, setups):.4f} s"),
        }
        for name, unit in END_TO_END:
            value, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<14}{value:>12.4f} {unit:<6}{note}")
    else:
        per_pass = [
            spans.layer_metrics(t.result["spans"],
                                t.result["calibration_samples"],
                                t.scale, t.wall_s - p.wall_s)
            for p, t in zip(plain, traced)]
        for name, unit, _ in spans.PER_LAYER:
            value = statistics.median(m[name] for m in per_pass)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name:<40}{value:>14.4f} {unit:<6}"
                         f"median of {len(per_pass)} traced passes")
        write_trace(args, traced)
    measured = sum(p.wall_s for p in passes)
    lines.append(f"{'error_rate':<14}{failed / attempted:>12.4f} {'ratio':<6}"
                 f"{failed} of {attempted} ops failed")
    lines.append(f"{'ops':<14}{attempted:>12d} {'count':<6}"
                 f"{attempted / measured:.3f} ops per reference second")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, errors, result


def write_trace(args, traced):
    """Write the raw spans of the traced passes into the checkout."""
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "coeffs", "outcome"],
        "passes": [{"spans": t.result["spans"],
                    "calibration_samples": t.result["calibration_samples"]}
                   for t in traced]}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for testing the benchmark")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pdotq" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        lines, errors, result = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
