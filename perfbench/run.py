"""The gmepw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify|fibration|dictionary \
        --seed N --seconds S --trace 0|1

Run it from the root of a plain checkout; it puts the checkout's ``src`` on
``sys.path`` itself, so ``gmepw`` need not be installed.

Each run is closed-loop with one client and one thread.  It builds the
workload's ops from the seed, then runs them in passes, one op at a time,
until ``--seconds`` is spent (at least one full pass), and times each op
with ``perf_counter``.  Every op's answer is checked exactly outside the
timed region; the first execution of an op gets the full check and later
executions must repeat its output byte for byte.

Times are host-scaled (see ``hostclock.py``): each op's wall time is scaled
to a host that runs a fixed reference kernel in exactly 1 ms, because the
speed of the shared host flips by up to 1.8x while a run goes on.  The
wall-clock throughput and the kernel times are kept in the record.

End-to-end metrics (``--trace 0``):

* ``ops_per_s`` -- ops / sum over ops of the op's median time over the
  passes.  Per-op medians over repeated passes stay close from run to run
  where whole-pass times do not.
* ``op_p50_ms`` -- the median of the per-op medians.
* ``op_tail_ms`` -- the highest percentile of the per-op medians that has at
  least ten of them beyond it; reported with that percentile and the count,
  and omitted when a workload has too few ops for a tail.
* ``setup_s`` -- the median over several set-ups of the time to import
  ``gmepw`` afresh (its modules dropped from ``sys.modules``, so module and
  ``lru_cache`` state start empty) and build the fixtures and inputs.
* ``peak_rss_mb`` -- the peak resident memory of the process.
* ``error_rate`` -- failed ops / attempted ops.

The last line of standard output is the machine-readable JSON result; the
``perfbench-record`` line before it holds every metric, the output digest
and the run record, and is what ``compare.py`` reads.

With ``--trace 1`` the run measures untraced for half the time, then runs
one more pass with the tracer of ``spans.py`` installed, and reports the
per-layer metrics of that pass and the tracing overhead: the difference
between the traced pass's ``ops_per_s`` and the untraced one.  Span times
are host-scaled like op times; the reference kernel's samples during an op
land inside its spans, a few percent of their time.  The spans are written
to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import CheckFailed  # noqa: E402

EXIT_SETUP = 2


class SetupError(Exception):
    pass


# ------------------------------------------------------------------- set-up


def _drop_gmepw() -> None:
    for name in [n for n in sys.modules if n == "gmepw" or n.startswith("gmepw.")]:
        del sys.modules[name]


def _check_source() -> None:
    if not (SRC / "gmepw" / "__init__.py").is_file():
        raise SetupError(f"no gmepw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("gmepw")
    if spec is None or Path(spec.origin).resolve().parent != (SRC / "gmepw").resolve():
        raise SetupError("gmepw does not import from the checkout's src directory")


def set_up(workload: str, seed: int, clock: HostClock) -> tuple[list, list[float]]:
    """Import gmepw afresh and build the ops, SETUP_REPEATS times; return
    the last ops and every scaled set-up time."""

    def build():
        importlib.import_module("gmepw.cli")
        return workloads.BUILDERS[workload](seed)

    times = []
    ops = []
    for _ in range(SETUP_REPEATS):
        _drop_gmepw()
        ops, error, _, scaled = clock.run(build)
        if error is not None:
            raise error
        times.append(scaled)
    return ops, times


# -------------------------------------------------------------- measurement


class Samples:
    """Per-op times (wall and scaled), first outputs and failure counts."""

    def __init__(self, n: int):
        self.wall: list[list[float]] = [[] for _ in range(n)]
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.outputs: list[bytes | None] = [None] * n
        self.attempted = 0
        self.failed = 0


def _execute(op, k: int, samples: Samples, clock: HostClock) -> tuple[float, float]:
    """Run op k once, check it, and record its time; return (wall s, scaled s)."""
    result, error, wall, scaled = clock.run(op.run)
    samples.attempted += 1
    try:
        if error is not None:
            raise error
        out = op.output(result)
        if samples.outputs[k] is None:
            op.check(result)
            samples.outputs[k] = out
        elif out != samples.outputs[k]:
            raise CheckFailed("output differs from the op's first execution")
    except Exception as exc:
        samples.failed += 1
        first_line = (str(exc).splitlines() or [""])[0]
        print(f"FAILED {op.label}: {type(exc).__name__}: {first_line}", file=sys.stderr)
    samples.wall[k].append(wall)
    samples.times[k].append(scaled)
    return wall, scaled


def measure(ops, seconds: float, samples: Samples, clock: HostClock) -> None:
    """Run passes over the ops until the time is spent; always one full pass.

    An op is not started when its previous wall time would overrun the budget."""
    start = perf_counter()
    i = 0
    while True:
        k = i % len(ops)
        if i >= len(ops) and perf_counter() - start + samples.wall[k][-1] > seconds:
            break
        _execute(ops[k], k, samples, clock)
        i += 1


def traced_pass(ops, samples: Samples, clock: HostClock, tracer) -> list[tuple[float, float]]:
    """One pass with the tracer installed; return each op's (wall s, scaled s)."""
    times = []
    tracer.install()
    try:
        for k, op in enumerate(ops):
            tracer.op_id = k
            times.append(_execute(op, k, samples, clock))
    finally:
        tracer.uninstall()
    return times


# ------------------------------------------------------------------ metrics


def end_to_end(samples: Samples, setup_times: list[float]) -> dict:
    medians = [statistics.median(t) for t in samples.times]
    n = len(medians)
    out = {
        "ops_per_s": {"value": n / sum(medians), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(medians) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "error_rate": {"value": samples.failed / samples.attempted, "unit": "ratio"},
    }
    if n > TAIL_BEYOND:
        out["op_tail_ms"] = {
            "value": sorted(medians)[n - TAIL_BEYOND - 1] * 1e3,
            "unit": "ms",
            "percentile": 100 * (n - TAIL_BEYOND) / n,
            "samples": n,
        }
    return out


def digest(ops, samples: Samples) -> str:
    h = hashlib.sha256()
    for op, out in zip(ops, samples.outputs):
        h.update(op.label.encode() + b"\0" + (out if out is not None else b"FAILED") + b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _load1() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def _fmt(name: str, m: dict) -> str:
    line = f"  {name:<34} {m['value']:.6g} {m['unit']}"
    if "percentile" in m:
        line += f"  (p{m['percentile']:.1f} of {m['samples']} per-op medians)"
    return line


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gmepw benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "load1_start": _load1(),
        "commit": _git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        _check_source()
        clock = HostClock()
        ops, setup_times = set_up(args.workload, args.seed, clock)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SETUP

    samples = Samples(len(ops))
    measure(ops, args.seconds / 2 if args.trace else args.seconds, samples, clock)
    e2e = end_to_end(samples, setup_times)

    layers = None
    if args.trace:
        tracer = spans.Tracer()
        traced = traced_pass(ops, samples, clock, tracer)
        traced_s = sum(scaled for _, scaled in traced)
        overhead = 100 * (e2e["ops_per_s"]["value"] * traced_s / len(ops) - 1)
        layers = tracer.layer_metrics(overhead, traced_s / sum(wall for wall, _ in traced))
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")

    record.update({
        "load1_end": _load1(),
        "ops": len(ops),
        "passes": [len(t) for t in samples.times],
        "op_medians_ms": [[op.label, 1e3 * statistics.median(t)]
                          for op, t in zip(ops, samples.times)],
        "ops_per_s_wall": len(ops) / sum(statistics.median(t) for t in samples.wall),
        "reference_ms": [1e3 * min(clock.refs), 1e3 * statistics.median(clock.refs),
                         1e3 * max(clock.refs)],
        "attempted": samples.attempted,
        "failed": samples.failed,
        "setup_times_s": setup_times,
        "digest": digest(ops, samples),
        "metrics": e2e,
    })

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"executions {samples.attempted}  failed {samples.failed}")
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "error_rate"):
        if name in e2e:
            print(_fmt(name, e2e[name]))
        else:
            print(f"  {name:<34} omitted: {len(ops)} ops, a tail needs more than {TAIL_BEYOND}")
    print(f"  first set-up (cold import)         {setup_times[0]:.6g} s")
    print(f"  ops_per_s by wall clock            {record['ops_per_s_wall']:.6g} 1/s  "
          f"(reference kernel min/median/max "
          + "/".join(f"{x:.3f}" for x in record["reference_ms"]) + " ms)")
    print(f"  output digest                      {record['digest']}")
    if layers is not None:
        units = spans.LAYER_METRICS
        record["layers"] = layers
        print(f"per-layer metrics of one traced pass (tracing overhead {layers['trace.overhead_pct']:.1f}%)")
        for name, value in layers.items():
            print(_fmt(name, {"value": value, "unit": units[name]}))
        self_s, _ = tracer.self_times()
        total = tracer.root_time()
        print("self-time shares of the traced pass")
        for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]:
            print(f"  {name:<34} {100 * t / total:5.1f}%")
    print("perfbench-record " + json.dumps(record, sort_keys=True))

    if layers is None:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")}
    else:
        metrics = {name: {"value": v, "unit": spans.LAYER_METRICS[name]}
                   for name, v in layers.items()}
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
