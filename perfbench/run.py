"""permlab benchmark: seeded workloads, end-to-end job metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload levy-quad --seed 1 --seconds 25 --trace 0

The workload's jobs are drawn from the seed (``workloads.py``) and run back to
back in this process, one client in a closed loop, through permlab's command
line (``permlab.cli.main``) or its library.  The job list is repeated in
passes until the next pass would overrun ``--seconds``; there is always one
pass.  Every output is checked against an oracle (``jobkinds.py``), and every
pass after the first must reproduce the first bit for bit.

Job times are wall seconds divided by the machine's slowdown, which a fixed
reference probe measures between jobs (``speed.py``): the shared host drifts
by tens of percent within a run, and the probe cancels most of it.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: set-up time
(median over eleven fresh interpreters importing permlab and parsing every
spec, each divided by the slowdown probed around it),
the summed per-job medians over passes, percentiles of those medians, peak
resident memory, the share of jobs that met their oracle, and the fewest
correct digits of any job.

``--trace 1`` runs an untraced pass, then the same pass with every permlab
layer wrapped (``tracer.py``), twice over, and prints the per-layer metrics
of BENCHMARK.json for the last traced pass plus the tracing overhead.
Spans are written to ``perfbench/out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every job run that raised, exited non-zero or missed its oracle; ``correct``
is False when any of them gave a wrong or broken answer rather than the
program declining to answer (see ``jobkinds.declined``).  The line before
it records the machine, the environment and the raw pass times.
"""

from __future__ import annotations

import os

# one core: pin BLAS and OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import jobkinds  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
TRACE_ROUNDS = 2
DIGITS_CAP = 16.0


def _fail_exit(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_program():
    """Import permlab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "permlab", "__init__.py")):
        _fail_exit(f"no permlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import permlab
    import permlab.cli  # noqa: F401
    where = os.path.dirname(os.path.abspath(permlab.__file__))
    if where != os.path.join(SRC, "permlab"):
        _fail_exit(f"imported permlab from {where}, not from {SRC}")
    return permlab


def environment() -> dict:
    import numpy as np
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split(":", 1)[1].strip()
                for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "")
    llc = read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    ld = np.finfo(np.longdouble)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "longdouble": {"mantissa_bits": int(ld.nmant) + 1,
                       "precision_digits": int(ld.precision),
                       "extended_80bit": int(ld.nmant) == 63},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "llc": llc, "mem_total": mem,
        "note": ("bytes and flops are computed from array sizes, not measured: "
                 "a bandwidth run needs arrays of at least 4x the last-level "
                 "cache, which does not fit in this machine's memory"),
    }


# -- running jobs -------------------------------------------------------------

class Job:
    def __init__(self, job: dict, workdir: str):
        self.id, self.kind, self.spec = job["id"], job["kind"], job["spec"]
        self.call, self.refresh = jobkinds.prepare(job, workdir)
        self.digest = None

    def run(self, tracer=None) -> dict:
        """Run once; returns the wall time, the oracle's verdict, whether a
        failure was the program declining to answer, and the relative
        error."""
        self.refresh()
        if tracer is not None:
            tracer.job, tracer.active = self.id, True
        t0 = perf_counter()
        try:
            output = self.call()
            error = None
        except Exception as exc:   # a failed job is counted, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            output, error = None, exc
            detail = (f"{type(exc).__name__}: {exc} "
                      f"({os.path.basename(where.filename)}:{where.lineno})")
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            ok, err, detail = jobkinds.check(self.kind, self.spec, output)
            digest = jobkinds.digest(output)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                ok, detail = False, "output differs from the first pass"
        else:
            ok, err = False, None
        return {"wall": elapsed, "ok": ok, "err": err, "detail": detail,
                "declined": not ok and jobkinds.declined(error, output)}


def run_pass(jobs: list[Job], probe, tracer=None) -> list[dict]:
    """Run every job once.  Each result's ``s`` is its wall time divided by
    the mean of the machine slowdowns probed just before and just after it."""
    results = []
    before = probe.sample()
    for job in jobs:
        res = job.run(tracer)
        after = probe.sample()
        res["s"] = res["wall"] / (0.5 * (before + after))
        before = after
        if not res["ok"]:
            why = "declined" if res["declined"] else "failed"
            print(f"# job {job.id} ({job.kind}) {why}: {res['detail']}")
        results.append(res)
    return results


def warm_up(jobs: list[Job]):
    """Run the smallest job of each kind once, untimed, so that lazy imports
    and first-call set-up inside numpy and scipy do not land in pass one,
    and compute the oracles' reference values, so that the first pass takes
    no longer than the others."""
    for job in jobs:
        jobkinds.prime(job.kind, job.spec)
    smallest = {}
    for job in jobs:
        size = len(json.dumps(job.spec))
        if job.kind not in smallest or size < smallest[job.kind][0]:
            smallest[job.kind] = (size, job)
    for _, job in smallest.values():
        # the two single large jobs would add seconds and warm nothing new
        if job.kind not in ("grid-200", "rebirth-400"):
            job.run()


def measure_setup(specs_path: str, probe) -> float:
    """Median set-up time of fresh interpreters.  Each is divided by the
    mean of the single slowdown probes just before and just after it, not
    by the probe's running median: one set-up lasts most of a second, and
    the host's load moves within that time."""
    times = []
    probe.sample()
    before = probe.samples[-1]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, specs_path],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            _fail_exit(f"set-up probe failed:\n{proc.stderr}", 1)
        probe.sample()
        after = probe.samples[-1]
        times.append(float(proc.stdout.strip().splitlines()[-1])
                     / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


# -- metrics ----------------------------------------------------------------

def digits(err) -> float:
    if err is None or err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def end_to_end(passes: list[list[dict]], setup_s: float) -> dict:
    """Latency of a job is its median over passes, which leaves out a pass
    that one burst of host load slowed; wall_s sums those medians."""
    per_job = [statistics.median(results[i]["s"] for results in passes)
               for i in range(len(passes[0]))]
    flat = [r for results in passes for r in results]
    p90 = percentile(per_job, 0.9)
    beyond = sum(s > p90 for s in per_job)
    print(f"# job_s: {len(per_job)} jobs, each the median of {len(passes)} "
          f"passes; {beyond} lie beyond p90"
          + ("" if beyond >= 10 else " (fewer than 10: p90 is not resolved)"))
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_job),
        "job_s.p50": statistics.median(per_job),
        "job_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(r["ok"] for r in flat) / len(flat),
        "accuracy_digits.min": min(digits(r["err"]) for r in flat if r["ok"])
        if any(r["ok"] for r in flat) else 0.0,
    }


def select(values: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_workload(jobs: list[Job], probe, seconds: float) -> list[list[dict]]:
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(jobs, probe))
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return passes


def run_traced(jobs: list[Job], probe):
    """Untraced and traced passes in turn: (passes, values, tracer).

    The layer metrics are those of the last traced pass.  Self times are
    wall seconds; the overhead compares job times at nominal machine speed,
    each job's fastest untraced run against its fastest traced run, so that
    drift between passes does not count."""
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run_pass(jobs, probe))
        with tracer:
            traced.append(run_pass(jobs, probe, tracer))
    values = tracer.layer_metrics()

    def fastest(passes):
        return sum(min(p[i]["s"] for p in passes) for i in range(len(jobs)))

    values["trace.overhead_s"] = fastest(traced) - fastest(plain)
    return [p for pair in zip(plain, traced) for p in pair], values, tracer


def save_spans(tracer, workload: str, seed: int):
    import numpy as np
    np.savez(os.path.join(OUT, f"trace-{workload}.npz"),
             span_names=np.array(tracer.names), span_layers=np.array(tracer.layer_of),
             seed=seed, **tracer.spans())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = _load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        _fail_exit(f"unknown workload {args.workload!r}")
    _import_program()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        specs = workloads.generate(args.workload, args.seed)
        specs_path = os.path.join(workdir, "specs.json")
        with open(specs_path, "w") as fh:
            fh.write(workloads.dumps(specs))
        probe = SpeedProbe()
        setup_s = None if args.trace else measure_setup(specs_path, probe)
        jobs = [Job(spec, workdir) for spec in specs]
        warm_up(jobs)
        if args.trace:
            passes, values, tracer = run_traced(jobs, probe)
            save_spans(tracer, args.workload, args.seed)
            metrics = select(values, bench["per_layer"])
        else:
            passes = run_workload(jobs, probe, args.seconds)
            metrics = select(end_to_end(passes, setup_s), bench["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flat = [r for results in passes for r in results]
    failed = sum(not r["ok"] for r in flat)
    wrong = sum(not r["ok"] and not r["declined"] for r in flat)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "passes": len(passes),
                      "pass_wall_s": [sum(r["wall"] for r in p) for p in passes],
                      "slowdown_median": statistics.median(probe.samples)}))
    print(json.dumps({"correct": wrong == 0, "attempted": len(flat),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
