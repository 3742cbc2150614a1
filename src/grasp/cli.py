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
import math
import os
import sys
import tempfile

from .datafiles import load_profiles_dir, load_site_csv
from .energy import SYNTH_SHAPES, profile_csv_text, synth_profile
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


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".grasp-", suffix=".tmp")
    try:
        # mkstemp creates 0600; give the output the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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


def _load_run_config(args, scheduler=None):
    if args.k is not None:
        if not math.isfinite(args.k):
            raise ValidationError("--k", "must be a finite number")
        _positive("--k", args.k)
    config = load_config(args.config) if args.config else ControllerConfig()
    return config.with_overrides(scheduler=scheduler, job_energy_wh=args.k)


def _profiles_for(args, config):
    profiles = load_profiles_dir(args.energy_dir, config)
    if getattr(args, "topology", None):
        topo = load_topology(args.topology)
        if len(topo.datacenters) != len(profiles):
            raise ValidationError(
                "--energy-dir",
                "%d profiles for %d datacenters in %s"
                % (len(profiles), len(topo.datacenters), args.topology),
            )
    return profiles


def cmd_run(args):
    config = _load_run_config(args, args.scheduler)
    _positive("--jobs-per-hour", args.jobs_per_hour)
    hours = args.hours
    if hours is not None:
        _positive("--hours", hours)
    profiles = _profiles_for(args, config)
    report = run_year(
        profiles,
        scheduler=config.scheduler,
        job_energy_wh=config.job_energy_wh,
        jobs_per_hour=args.jobs_per_hour,
        hours=hours,
    )
    print(
        "scheduler=%s k=%g jobs_per_hour=%d hours=%d dcs=%d"
        % (report.scheduler, report.job_energy_wh, report.jobs_per_hour, report.hours, len(report.dc_names))
    )
    print("r_avg=%.6f" % report.r_avg)
    if args.out:
        _write_atomic(args.out, metrics_csv_text([report]))
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
    steps = (end - start) / step + 1e-9
    # every point runs two scheduler years; a longer range is a typo, not a sweep
    if not steps < MAX_SWEEP_POINTS:
        raise ValidationError("--range", "%r has more than %d points" % (text, MAX_SWEEP_POINTS))
    return [start + i * step for i in range(math.floor(steps) + 1)]


def cmd_sweep(args):
    config = _load_run_config(args)
    _positive("--jobs-per-hour", args.jobs_per_hour)
    if args.hours is not None:
        _positive("--hours", args.hours)
    values = _parse_range(args.range)
    profiles = _profiles_for(args, config)
    if args.mode == "k":
        if any(v <= 0 for v in values):
            raise ValidationError("--range", "k values must be > 0")
        rows = sweep_k(
            profiles,
            values,
            jobs_per_hour=args.jobs_per_hour,
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
    _write_atomic(args.out, sweep_csv_text(rows))
    print("rows=%d wrote %s" % (len(rows), args.out))
    if args.svg:
        xs = [r[0] for r in rows]
        series = [
            ("green aware", [r[1] for r in rows]),
            ("round robin", [r[2] for r in rows]),
        ]
        svg = line_chart(xs, series, title="r_avg vs %s" % xlabel, xlabel=xlabel, ylabel="r_avg")
        _write_atomic(args.svg, svg)
        print("wrote %s" % args.svg)
    return 0


def cmd_scenario(args):
    report = run_scenario(args.scenario, seed=args.seed)
    print(
        "packet_ins=%d auth_failures=%d deliveries=%d"
        % (report.packet_in_count, report.auth_failures, len(report.deliveries))
    )
    for i, name in enumerate(report.dc_names):
        print("d%d %s jobs=%d" % (i, name, report.per_dc_jobs[i]))
    if args.trace_out:
        _write_atomic(args.trace_out, "".join(line + "\n" for line in report.trace))
        print("wrote %s" % args.trace_out)
    return 0


def cmd_gen_energy(args):
    profile = synth_profile(args.shape, args.peak_wh)
    _write_atomic(args.out, profile_csv_text(profile))
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
            detail = "%d profiles" % len(load_profiles_dir(args.energy, config))
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
    p.add_argument("--topology", help="optional topology JSON, checked against profile count")
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
    p.add_argument("--topology")
    p.add_argument("--config")
    p.add_argument("--k", type=float, help="energy per job for load mode")
    p.add_argument("--jobs-per-hour", type=int, default=900, help="load for k mode")
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
    p.add_argument("--topology")
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
