"""Year-scale scheduling experiments.

Fast mode: instead of simulating packets, replay the scheduling policies
directly against hourly energy profiles.  Each hour places a fixed
number of jobs, counts how many of them are covered by green energy, and
the yearly figure of merit is the mean hourly green ratio.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .energy import HOURS_PER_YEAR
from .errors import ValidationError
from .scheduler import SCHEDULERS


@dataclass
class YearReport:
    scheduler: str
    job_energy_wh: float
    jobs_per_hour: int
    hours: int
    dc_names: list
    per_dc_load: np.ndarray  # (hours, m) jobs placed
    green_jobs: np.ndarray  # (hours,) jobs covered by green energy
    ratio: np.ndarray  # (hours,) green_jobs / jobs, 1.0 when jobs == 0
    r_avg: float


def run_year(profiles, scheduler="green_aware", job_energy_wh=1.0, jobs_per_hour=900, hours=None):
    """Replay one scheduler over hourly profiles and score every hour.

    The per-hour capacity of a data center is its energy divided by the
    per-job energy, which must stay finite and below `_kernels.LIMIT`
    jobs.  Placements follow the named policy exactly as the per-decision
    scheduler would make them, including tie-breaks; the round-robin
    cursor carries over between hours.
    """
    if scheduler not in SCHEDULERS:
        raise ValidationError("scheduler", f"unknown scheduler {scheduler!r}")
    if not profiles:
        raise ValidationError("profiles", "need at least one site profile")
    if job_energy_wh <= 0:
        raise ValidationError("job_energy_wh", "must be > 0")
    if not 0 <= jobs_per_hour < _kernels.LIMIT:
        raise ValidationError("jobs_per_hour", "must be >= 0 and below 2**48")
    if hours is None:
        hours = HOURS_PER_YEAR
    if not 1 <= hours <= HOURS_PER_YEAR:
        raise ValidationError("hours", f"must be within 1..{HOURS_PER_YEAR}")

    m = len(profiles)
    jobs = int(jobs_per_hour)
    energy = np.stack([p.wh for p in profiles], axis=1)[:hours]
    with np.errstate(over="ignore"):
        capacity = energy / job_energy_wh
    if not (capacity < _kernels.LIMIT).all():
        raise ValidationError("job_energy_wh", "energy / job_energy_wh must be finite and below 2**48 jobs")

    if scheduler == "green_aware":
        loads = _kernels.greedy_hour(capacity, jobs)
    else:
        loads = _kernels.round_robin(hours, m, jobs)

    covered = np.minimum(capacity, loads).sum(axis=1)
    if jobs > 0:
        ratio = covered / jobs
    else:
        ratio = np.ones(hours)
    return YearReport(
        scheduler=scheduler,
        job_energy_wh=float(job_energy_wh),
        jobs_per_hour=jobs,
        hours=hours,
        dc_names=[p.site for p in profiles],
        per_dc_load=loads,
        green_jobs=covered,
        ratio=ratio,
        r_avg=float(ratio.mean()),
    )


def sweep_k(profiles, k_values, jobs_per_hour=900, hours=None):
    """r_avg of both schedulers for each per-job energy value."""
    return [
        (
            k,
            run_year(profiles, "green_aware", k, jobs_per_hour, hours).r_avg,
            run_year(profiles, "round_robin", k, jobs_per_hour, hours).r_avg,
        )
        for k in k_values
    ]


def sweep_load(profiles, load_values, job_energy_wh=1.0, hours=None):
    """r_avg of both schedulers for each jobs-per-hour value."""
    return [
        (
            j,
            run_year(profiles, "green_aware", job_energy_wh, j, hours).r_avg,
            run_year(profiles, "round_robin", job_energy_wh, j, hours).r_avg,
        )
        for j in load_values
    ]


def metrics_csv_text(report):
    """Hourly metrics rows of one year report, stable formatting."""
    m = report.per_dc_load.shape[1]
    lines = ["hour,scheduler,k,jobs,n_g,r," + ",".join(f"dc_{d}" for d in range(m))]
    fixed = "%s,%.15g,%d" % (report.scheduler.replace("%", "%%"), report.job_energy_wh, report.jobs_per_hour)
    row = "%d," + fixed + ",%.6f,%.6f," + ",".join(["%d"] * m)
    lines += [
        row % (h, n_g, r, *loads)
        for h, n_g, r, loads in zip(
            range(report.hours), report.green_jobs.tolist(), report.ratio.tolist(), report.per_dc_load.tolist()
        )
    ]
    return "\n".join(lines) + "\n"


def sweep_csv_text(rows):
    """Sweep results CSV: one row per swept value."""
    lines = ["k_or_load,r_avg_green,r_avg_rr"]
    for value, r_green, r_rr in rows:
        lines.append("%.15g,%.6f,%.6f" % (value, r_green, r_rr))
    return "\n".join(lines) + "\n"
