"""Benchmark for grasp: three workloads timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`.
Load is a closed loop with one client: one process, one thread, each
iteration of the workload's CLI commands starting when the last ends,
until `--seconds` have passed.  Every iteration's outputs are checked
against `perfbench/reference.json`.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a separate traced run that
alternates untraced and traced iterations, so that it can also report the
tracing overhead.  Earlier lines record the environment and the run.
Spans of the last traced iteration and a JSON record of every run go to
`.perfbench_out/` under the root.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from workloads import ROOT, SRC, WORKLOADS, load_reference, run_cli
from tracer import CLI_SPAN, ROOT_SPAN, Tracer, combine, iteration_layers, layer_metric_names

OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown (%s)" % ref


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy

    import grasp
    import grasp._kernels as kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend() if hasattr(kernels, "active_backend") else "none",
        "GRASP_DISABLE_NUMBA": os.environ.get("GRASP_DISABLE_NUMBA", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "grasp_version": grasp.__version__,
    }


def measure_setup(workload):
    """Median seconds for a fresh interpreter to import grasp and load
    the workload's inputs, over SETUP_REPS processes run one by one."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("GRASP_SEED", None)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", workload.setup_code()],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr.decode(errors="replace"))
    return statistics.median(times), times


class Loop:
    """Runs iterations of one workload in `outdir` and checks each."""

    def __init__(self, workload, reference, outdir):
        self.workload = workload
        self.reference = reference
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.mismatches = {}

    def iterate(self, tracer=None):
        """One iteration; returns (wall seconds, bytes written)."""
        for f in os.listdir(self.outdir):
            os.unlink(os.path.join(self.outdir, f))
        commands = self.workload.commands()
        self.attempted += 1
        results = []
        t0 = time.perf_counter()
        try:
            if tracer is None:
                for argv in commands:
                    results.append(run_cli(argv))
            else:
                root = tracer.begin(ROOT_SPAN)
                for argv in commands:
                    results.append(tracer.span(CLI_SPAN, run_cli, argv))
                tracer.end(root)
        except Exception as exc:  # a crash fails this iteration, not the run
            wall = time.perf_counter() - t0
            self._fail("raised %s: %s" % (type(exc).__name__, exc))
            return wall, 0
        wall = time.perf_counter() - t0
        out_bytes = sum(os.path.getsize(os.path.join(self.outdir, f)) for f in os.listdir(self.outdir))
        bad = self.workload.check(results, self.reference)
        if bad:
            self._fail("outputs differ from reference: " + ", ".join(bad))
            for rc, _, err in results:
                if rc != 0:
                    sys.stderr.write(err)
        return wall, out_bytes

    def _fail(self, why):
        self.failed += 1
        self.mismatches[why] = self.mismatches.get(why, 0) + 1


def _time_left(start, seconds, durations):
    """Whether another iteration, as long as the median so far, still
    ends within `seconds` of `start`; the first one always runs."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(loop, seconds):
    walls = []
    start = time.perf_counter()
    while _time_left(start, seconds, walls):
        walls.append(loop.iterate()[0])
    return walls


def run_traced(loop, seconds):
    """Alternate untraced and traced iterations; returns the per-layer
    metrics, the untraced walls and the tracer of the last iteration."""
    untraced, layers, pairs = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while _time_left(start, seconds, pairs):
        t0 = time.perf_counter()
        untraced.append(loop.iterate()[0])
        tracer.reset()
        tracer.install()
        try:
            _, out_bytes = loop.iterate(tracer)
        finally:
            tracer.uninstall()
        layers.append(iteration_layers(tracer, out_bytes))
        pairs.append(time.perf_counter() - t0)
    return combine(layers, untraced), untraced, tracer


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grasp", "__init__.py")):
        sys.stderr.write("error: no grasp sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("GRASP_SEED", None)  # the CLI's default seed, as in the reference

    workload = WORKLOADS[args.workload](args.seed)
    reference = load_reference()
    workdir = os.path.join(OUT_ROOT, "%s-%d" % (args.workload, os.getpid()))
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    cwd = os.getcwd()
    try:
        workload.prepare(workdir)
        import grasp.cli  # noqa: F401  (imported before timing; compiles bytecode once)

        setup_s, setup_times = measure_setup(workload)
        env = environment()
        loop = Loop(workload, reference, outdir)
        os.chdir(outdir)
        if args.trace:
            metrics, untraced, tracer = run_traced(loop, args.seconds)
            spans = os.path.join(OUT_ROOT, "spans-%s.csv" % args.workload)
            tracer.write_csv(spans)
            units = layer_metric_names()
            result_metrics = {n: {"value": metrics[n], "unit": units[n]} for n in sorted(units)}
            walls = untraced
        else:
            walls = run_untraced(loop, args.seconds)
            wall_s = statistics.median(walls)
            result_metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "placements_per_s": {"value": workload.placements / wall_s, "unit": "1/s"},
                "sim_s_per_s": {"value": workload.sim_seconds / wall_s, "unit": "s/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": loop.attempted,
        "fail_ratio": loop.failed / loop.attempted,
        "failures": loop.mismatches,
        "untraced_walls_s": walls,
        "setup_reps_s": setup_times,
        "placements_per_iteration": workload.placements,
        "sim_seconds_per_iteration": workload.sim_seconds,
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": result_metrics,
    }
    record = os.path.join(OUT_ROOT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record, "w") as fh:
        json.dump({"env": env, "info": info, "result": result}, fh, indent=1)
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
