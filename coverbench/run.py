"""coverkit benchmark: one workload, timed end to end or traced per layer.

    python3 coverbench/run.py --workload descent --seed 1 --seconds 10 --trace 0

Load is a closed loop in this one process: ``coverkit.runner.run`` is called
on the generated config again as soon as the previous call returns, as a
batch CLI user would. Every run's artifacts are checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of import, validate and density build), ``run_s`` (median wall
time of the runs that fit in what is left of ``--seconds``, at least one),
both scaled to the host's speed (see ``REFERENCE_S``),
``peak_rss_mb`` (peak resident memory of this fresh process after its first
full-size run) and ``objective``. Both timings follow one untimed toy-size
warm-up. ``--trace 1`` makes one untraced and one traced run after the
warm-up and reports the per-layer metrics of the traced one. The last line of standard output is the result as
JSON; the line before it records the environment and every sample.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 9
# The host's speed swings by up to 1.8x in phases that last from seconds to
# minutes, so a wall time says as much about the host as about the program.
# A fixed reference work is timed after every set-up probe and every run, and
# both timings are scaled by REFERENCE_S over the median of those readings.
# REFERENCE_S is near the reference work's median time on the 2-CPU host
# where the benchmark was built (0.13 to 0.15 s over four sets of runs), so a
# scaled time reads close to a wall time there.
REFERENCE_REPEATS = 25
REFERENCE_S = 0.125
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "objective": "cost"}


def cap_blas_threads() -> dict:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over src/, which names the code even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, blas: dict) -> dict:
    import numpy
    import scipy

    return {"git_commit": git_commit(), "src_sha256": source_digest(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas}


def setup_times(config: Path, repeats: int, readings: list[float]) -> list[float]:
    """Wall time from starting a fresh interpreter until its density is ready.

    A reference reading is appended to readings after each probe.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                             env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]) - start)
        readings.append(reference_s())
    return times


def reference_s() -> float:
    """Wall time of a fixed piece of work that calls no coverkit code.

    It mixes the two kinds of work coverkit does: a Python loop of small numpy
    operations, as in polygon clipping, and one large vectorised evaluation, as
    in a density eval. Its time tracks how fast the host runs right now.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    points, grid = rng.random((400, 2)), rng.random((100_000, 2))
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        total = 0.0
        for p in points:
            d = p - 0.5
            if d @ d < 0.2:
                total += float(np.hypot(*d))
        total += float(np.exp(-((grid - 0.3) ** 2).sum(axis=1) / 0.01).sum())
    return time.perf_counter() - start


class Runs:
    """Calls runner.run on generated configs and checks every result."""

    def __init__(self, workload: str, work: Path):
        self.workload, self.work = workload, work
        self.attempted = 0
        self.failures: list[str] = []
        self.objectives: dict[Path, float] = {}

    def run(self, config: Path, call=None) -> tuple[float, dict]:
        """One timed call; returns its wall time and the call counts it implies."""
        from coverkit import runner
        import workloads

        call = call or runner.run
        out = self.work / f"run{self.attempted}"
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = call(config, out=out)
        except Exception:  # a crash is a failed run; keep measuring the rest
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        calls = {}
        try:
            objective, calls = workloads.check_run(self.workload, code, out)
            first = self.objectives.setdefault(config, objective)
            if objective != first:
                raise workloads.CheckFailed(
                    f"objective {objective!r} differs from {first!r} on the same config")
        except workloads.CheckFailed as exc:
            self.failures.append(f"run {self.attempted - 1}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, calls


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> tuple[Runs, dict, dict]:
    """Run one workload; returns the runs, the metrics and the raw samples.

    The warm-up runs the same pipeline at toy size: it loads every module,
    writes their bytecode caches and fills numpy's and scipy's lazy caches in
    well under a second, where a full-size warm-up would cost up to 30 s of
    every invocation.
    """
    import workloads
    from tracing import ROOT_SPAN, Tracer

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.write_config(workload, seed, work, toy)
    warmup = workloads.write_config(workload, seed, work / "warmup", toy=True)
    runs = Runs(workload, work)
    samples: dict = {}
    samples["warmup_s"], _ = runs.run(warmup)

    if trace:
        from coverkit import runner

        untraced, _ = runs.run(config)
        tracer = Tracer()
        tracer.run_id = runs.attempted
        tracer.install()
        try:
            traced, expected = runs.run(config, tracer.span(ROOT_SPAN, runner.run))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(tracer.run_id)
        metrics["trace.overhead_s"] = traced - untraced
        wrong = [f"{name} = {metrics[name]}, artifacts imply {count}"
                 for name, count in expected.items() if metrics[name] != count]
        if wrong:
            runs.failures.append("traced run: " + "; ".join(wrong))
        tracer.write(work / "spans.csv")
        samples.update(untraced_s=untraced, traced_s=traced)
        return runs, metrics, samples

    # Set-up probes and runs share the window: half the probes come before
    # the runs and half after, so the reference readings surround the runs
    # even when one run fills the window. The first full-size run of this
    # fresh process sets the memory peak. Further runs start only while a
    # typical run and the remaining probes still fit, so an invocation lasts
    # about --seconds however slow one run is.
    start = time.perf_counter()
    readings = [reference_s()]
    before = SETUP_REPEATS // 2
    setup = setup_times(config, before, readings)
    probe_s = (time.perf_counter() - start) / max(before, 1)
    rest_s = probe_s * (SETUP_REPEATS - before)
    walls = [runs.run(config)[0]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    readings.append(reference_s())
    while time.perf_counter() - start + statistics.median(walls) + rest_s <= seconds:
        walls.append(runs.run(config)[0])
        readings.append(reference_s())
    setup += setup_times(config, SETUP_REPEATS - before, readings)
    scale = REFERENCE_S / statistics.median(readings)
    samples.update(setup_s=setup, run_s=walls, reference_s=readings, scale=scale)
    metrics = {"run_s": scale * statistics.median(walls),
               "setup_s": scale * statistics.median(setup),
               "peak_rss_mb": peak_rss_mb,
               "objective": runs.objectives.get(config)}
    return runs, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("descent", "poi", "swarm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coverkit" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"coverkit sources not found under {ROOT}", file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from tracing import PER_LAYER_UNITS

    runs, metrics, samples = measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not runs.failures,
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"workload": args.workload, "trace": args.trace,
               "env": environment(args.seed, blas), "samples": samples,
               "failures": runs.failures}
    (WORK / args.workload / "result.json").write_text(
        json.dumps({**details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
