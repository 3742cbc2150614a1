"""Command line entry points.

Subcommands:
  run         year-scale scheduling run against an energy profile directory
  sweep       r_avg comparison across a range of k or of jobs per hour
  scenario    deterministic protocol-level simulation of a scenario file
  gen-energy  synthetic hourly energy profile generator
  validate    check topology / config / energy inputs without running

Exit codes: 0 success, 1 invalid input or flag values, 2 I/O failure.
"""

import argparse
import contextlib
import math
import os
import sys
import tempfile

from .datafiles import load_profiles_dir, load_site_csv
from .energy import HOURS_PER_YEAR, SYNTH_SHAPES, profile_csv_text, synth_profile
from .errors import GraspError, ValidationError
from .experiment import metrics_csv_text, run_year, sweep_csv_text, sweep_k, sweep_load
from .model import SCHEDULER_NAMES, ControllerConfig, load_config, load_topology
from .netsim import run_scenario
from .svgchart import line_chart

MAX_SWEEP_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; we reserve 2 for I/O problems
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


@contextlib.contextmanager
def _atomic_file(path):
    """A text file to write `path` through: a temporary file beside it,
    renamed over it when the block ends and removed if the block fails."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".grasp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates 0600; give the output the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _positive(flag, value):
    if value <= 0:
        raise ValidationError(flag, "must be > 0")
    return value


def _hours(value):
    """--hours, if given, within one profile year."""
    if value is not None and not 1 <= value <= HOURS_PER_YEAR:
        raise ValidationError("--hours", f"must be within 1..{HOURS_PER_YEAR}")
    return value


def _load_run_config(args, scheduler=None):
    if args.k is not None:
        if not math.isfinite(args.k):
            raise ValidationError("--k", "must be a finite number")
        _positive("--k", args.k)
    config = load_config(args.config) if args.config else ControllerConfig()
    # argparse limits --scheduler to the known names and --k is checked above
    if scheduler is not None:
        config.scheduler = scheduler
    if args.k is not None:
        config.job_energy_wh = args.k
    return config


def cmd_run(args):
    config = _load_run_config(args, args.scheduler)
    _positive("--jobs-per-hour", args.jobs_per_hour)
    hours = _hours(args.hours)
    profiles = load_profiles_dir(args.energy_dir, config)
    report = run_year(
        profiles,
        scheduler=config.scheduler,
        job_energy_wh=config.job_energy_wh,
        jobs_per_hour=args.jobs_per_hour,
        hours=hours,
    )
    print(
        "scheduler=%s k=%.15g jobs_per_hour=%d hours=%d dcs=%d"
        % (report.scheduler, report.job_energy_wh, report.jobs_per_hour, report.hours, len(report.dc_names))
    )
    print("r_avg=%.6f" % report.r_avg)
    if args.out:
        with _atomic_file(args.out) as fh:
            fh.write(metrics_csv_text(report))
        print("wrote %s" % args.out)
    return 0


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("--range", "expected start:end:step, got %r" % text)
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError("--range", "non-numeric part in %r" % text)
    if not all(math.isfinite(v) for v in (start, end, step)):
        raise ValidationError("--range", "parts must be finite numbers, got %r" % text)
    if step <= 0:
        raise ValidationError("--range", "step must be > 0")
    if end < start:
        raise ValidationError("--range", "end below start")
    # start and end are each parsed to within half an ulp, so when they
    # nearly cancel, a whole number of steps can come out short by far
    # more than the division rounds; min() keeps round() off an inf
    steps = min((end - start) / step, MAX_SWEEP_POINTS)
    whole = round(steps)
    if abs(steps - whole) <= 1e-9 + (math.ulp(start) + math.ulp(end)) / step:
        steps = whole
    # every point runs two scheduler years; a longer range is a typo, not a sweep
    if not steps < MAX_SWEEP_POINTS:
        raise ValidationError("--range", "%r has more than %d points" % (text, MAX_SWEEP_POINTS))
    values = [start + i * step for i in range(math.floor(steps) + 1)]
    # a step below the spacing of floats near the values rounds several points onto one
    if len(set(values)) < len(values):
        raise ValidationError("--range", "%r repeats points: its step is finer than floats near its values" % text)
    return values


def cmd_sweep(args):
    # each mode sweeps one of --k and --jobs-per-hour over --range and fixes the other
    flag, swept = ("--k", args.k) if args.mode == "k" else ("--jobs-per-hour", args.jobs_per_hour)
    if swept is not None:
        raise ValidationError(flag, "--mode %s sweeps it: give its values in --range" % args.mode)
    config = _load_run_config(args)
    jobs_per_hour = 900 if args.jobs_per_hour is None else _positive("--jobs-per-hour", args.jobs_per_hour)
    _hours(args.hours)
    values = _parse_range(args.range)
    profiles = load_profiles_dir(args.energy_dir, config)
    if args.mode == "k":
        if any(v <= 0 for v in values):
            raise ValidationError("--range", "k values must be > 0")
        rows = sweep_k(
            profiles,
            values,
            jobs_per_hour=jobs_per_hour,
            hours=args.hours,
        )
        xlabel = "k (energy per job, Wh)"
    else:
        loads = [int(v) for v in values]
        if any(iv != v for iv, v in zip(loads, values)) or any(v <= 0 for v in loads):
            raise ValidationError("--range", "load values must be positive integers")
        rows = sweep_load(
            profiles,
            loads,
            job_energy_wh=config.job_energy_wh,
            hours=args.hours,
        )
        xlabel = "jobs per hour"
    with _atomic_file(args.out) as fh:
        fh.write(sweep_csv_text(rows))
    print("rows=%d wrote %s" % (len(rows), args.out))
    if args.svg:
        xs = [r[0] for r in rows]
        series = [
            ("green aware", [r[1] for r in rows]),
            ("round robin", [r[2] for r in rows]),
        ]
        svg = line_chart(xs, series, title="r_avg vs %s" % xlabel, xlabel=xlabel, ylabel="r_avg")
        with _atomic_file(args.svg) as fh:
            fh.write(svg)
        print("wrote %s" % args.svg)
    return 0


def cmd_scenario(args):
    # the trace streams into its file as the run goes; without one no line is made
    with _atomic_file(args.trace_out) if args.trace_out else contextlib.nullcontext() as fh:
        emit = None if fh is None else (lambda line: fh.write(line + "\n"))
        report = run_scenario(args.scenario, seed=args.seed, emit=emit)
    print(
        "packet_ins=%d auth_failures=%d deliveries=%d"
        % (report.packet_in_count, report.auth_failures, len(report.deliveries))
    )
    for i, name in enumerate(report.dc_names):
        print("d%d %s jobs=%d" % (i, name, report.per_dc_jobs[i]))
    if args.trace_out:
        print("wrote %s" % args.trace_out)
    return 0


def cmd_gen_energy(args):
    profile = synth_profile(args.shape, args.peak_wh)
    with _atomic_file(args.out) as fh:
        fh.write(profile_csv_text(profile))
    print("wrote %s (%d hours)" % (args.out, len(profile.wh)))
    return 0


def cmd_validate(args):
    if not (args.topology or args.config or args.energy):
        raise ValidationError("validate", "nothing to check, pass --topology, --config or --energy")
    config = load_config(args.config) if args.config else ControllerConfig()
    if args.config:
        print("OK %s (config)" % args.config)
    if args.topology:
        topo = load_topology(args.topology)
        print(
            "OK %s (%d switches, %d datacenters, %d clients)"
            % (args.topology, len(topo.switch_names), len(topo.datacenters), len(topo.clients))
        )
    if args.energy:
        if os.path.isdir(args.energy):
            count = len(load_profiles_dir(args.energy, config))
            if args.topology and count != len(topo.datacenters):
                raise ValidationError(
                    "--energy", "%d profiles for %d datacenters in %s" % (count, len(topo.datacenters), args.topology)
                )
            detail = "%d profiles" % count
        else:
            profile = load_site_csv(args.energy, config)
            detail = "site %s, %d hours" % (profile.site, len(profile.wh))
        print("OK %s (%s)" % (args.energy, detail))
    return 0


def build_parser():
    parser = _Parser(prog="grasp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scheduler over hourly profiles")
    p.add_argument("--energy-dir", required=True, help="directory of per-site hourly CSVs")
    p.add_argument("--config", help="controller config JSON")
    p.add_argument("--scheduler", choices=SCHEDULER_NAMES, help="override config scheduler")
    p.add_argument("--k", type=float, help="override energy per job in Wh")
    p.add_argument("--jobs-per-hour", type=int, default=900)
    p.add_argument("--hours", type=int, default=None, help="limit horizon, default full year")
    p.add_argument("--out", help="write per-hour metrics CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="compare schedulers across k or load")
    p.add_argument("--mode", choices=("k", "load"), required=True)
    p.add_argument("--range", required=True, help="start:end:step, inclusive")
    p.add_argument("--energy-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--k", type=float, help="energy per job for load mode")
    p.add_argument("--jobs-per-hour", type=int, help="load for k mode, default 900")
    p.add_argument("--hours", type=int, default=None)
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--svg", help="also write a chart here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenario", help="run a protocol-level scenario")
    p.add_argument("--seed", type=int, default=0, help="controller RNG seed, default 0")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--trace-out", help="write event trace here")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("gen-energy", help="write a synthetic profile CSV")
    p.add_argument("--shape", choices=SYNTH_SHAPES, required=True)
    p.add_argument("--peak-wh", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_energy)

    p = sub.add_parser("validate", help="check inputs without running")
    p.add_argument("--topology", help="topology JSON; with an --energy directory, one profile per data center")
    p.add_argument("--config")
    p.add_argument("--energy", help="profile/weather CSV or directory of them")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraspError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
