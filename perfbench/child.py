"""One pass of a workload, in a fresh process.

Protocol: time a few calibration samples, import the program, write
"ready <calibration seconds> <mean sample>" to stdout (the parent times
set-up up to here), read one JSON request from stdin, run its jobs
through `pdotq.cli.main`, check the outputs, and write one JSON result.
An empty stdin means set-up only.  With "trace" set, the program's
public functions are wrapped in spans before the first job.

Calibration: the CPU speed of the shared machine this benchmark was
built on drifts by up to 45 % within seconds, with CPU time tracking wall
time, so the drift is in the processor, not in scheduling.  A fixed
kernel is therefore timed every CALIBRATION_INTERVAL_S during the pass,
in this process, and the parent rescales the pass's time by the kernel's
mean duration.
"""

import json
import signal
import sys
import time
from fractions import Fraction

CALIBRATION_INTERVAL_S = 0.025
STARTUP_SAMPLES = 8
# The kernel runs at random points of the pass, so it allocates nothing
# above pymalloc's 512-byte limit: larger blocks from malloc would move
# the program's heap layout and with it the pass's peak RSS.
_OPERAND = 3 ** 900
_RESIDUES = list(range(1500))
_PACKED = bytearray(400)


def calibration_kernel():
    """A fixed piece of work shaped like the program's: an interpreter
    loop, big-integer products, remainders written in place, packing ints
    into bytes, a rational sum and JSON encoding."""
    acc = 0
    for i in range(1500):
        acc += i * i
    for _ in range(40):
        acc = _OPERAND * _OPERAND
    for i in range(1500):
        _RESIDUES[i] = (_RESIDUES[i] * 7 + 3) % 256
    for i in range(200):
        _PACKED[2 * i:2 * i + 2] = _RESIDUES[i].to_bytes(2, "little")
    total = Fraction(0)
    for d in range(1, 25):
        total += Fraction(d, d + 7)
    return acc, total, json.dumps({str(i): i for i in range(12)})


def timed_kernel():
    start = time.perf_counter()
    calibration_kernel()
    return start, time.perf_counter()


class SpeedProbe:
    """Time the calibration kernel on a wall-clock timer while the block
    runs, keeping each sample's (start, end).  The handler runs in this
    thread between bytecodes, so a sample lands on the same core as the
    work around it, and never inside a span's clock reading."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(timed_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def summary(samples):
    """[count, total seconds, mean seconds] of calibration samples."""
    total = sum(end - start for start, end in samples)
    return [len(samples), total, total / max(1, len(samples))]


def run_job(cli, argv):
    """Run one command line; capture its exit status, output and any
    traceback, never letting an exception out."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            tb = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "tb": tb}


def peak_rss_kib():
    """VmHWM, the peak RSS of this process alone.  ru_maxrss would not do:
    it starts from the parent's peak, which the exec'd child inherits."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    # the first sample pays one-off costs, so it only counts as time spent
    startup = [timed_kernel() for _ in range(STARTUP_SAMPLES + 1)]
    total = summary(startup)[1]
    mean = summary(startup[1:])[2]
    from pdotq import cli

    sys.stdout.write(f"ready {total!r} {mean!r}\n")
    sys.stdout.flush()

    text = sys.stdin.read()
    if not text:
        return
    request = json.loads(text)
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        outputs = [run_job(cli, argv) for argv in request["jobs"]]
        # imported after the jobs, so its modules stay out of their peak RSS
        import workloads

        errors = workloads.check(request["workload"], request["jobs"],
                                 outputs, request["refs"])
        wall = time.perf_counter() - start
    json.dump({
        "wall_s": wall,
        "calibration": summary(probe.samples),
        "peak_rss_kib": peak_rss_kib(),
        "errors": errors,
        "outputs": [[o["rc"], workloads.digest(o["stdout"]),
                     workloads.digest(o["stderr"])] for o in outputs],
        "spans": tracer.spans if tracer else None,
        "calibration_samples": probe.samples if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
