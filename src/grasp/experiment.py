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


def _sweep_cells(cells):
    """Run (label, kwargs) cells, each as two run_year calls, in order."""
    return [
        (
            label,
            run_year(scheduler="green_aware", **kwargs).r_avg,
            run_year(scheduler="round_robin", **kwargs).r_avg,
        )
        for label, kwargs in cells
    ]


def sweep_k(profiles, k_values, jobs_per_hour=900, hours=None):
    """r_avg of both schedulers for each per-job energy value."""
    cells = [
        (k, dict(profiles=profiles, job_energy_wh=k, jobs_per_hour=jobs_per_hour, hours=hours))
        for k in k_values
    ]
    return _sweep_cells(cells)


def sweep_load(profiles, load_values, job_energy_wh=1.0, hours=None):
    """r_avg of both schedulers for each jobs-per-hour value."""
    cells = [
        (j, dict(profiles=profiles, job_energy_wh=job_energy_wh, jobs_per_hour=j, hours=hours))
        for j in load_values
    ]
    return _sweep_cells(cells)


def metrics_csv_text(reports):
    """Hourly metrics rows for one or more year reports, stable formatting."""
    reports = list(reports)
    if not reports:
        raise ValidationError("reports", "need at least one report")
    m = reports[0].per_dc_load.shape[1]
    for rep in reports:
        if rep.per_dc_load.shape[1] != m:
            raise ValidationError("reports", "reports cover different fleet sizes")
    header = "hour,scheduler,k,jobs,n_g,r," + ",".join(f"dc_{d}" for d in range(m))
    lines = [header]
    for rep in reports:
        for h in range(rep.hours):
            row = "%d,%s,%s,%d,%.6f,%.6f," % (
                h,
                rep.scheduler,
                "%g" % rep.job_energy_wh,
                rep.jobs_per_hour,
                rep.green_jobs[h],
                rep.ratio[h],
            )
            row += ",".join(str(v) for v in rep.per_dc_load[h])
            lines.append(row)
    return "\n".join(lines) + "\n"


def sweep_csv_text(rows):
    """Sweep results CSV: one row per swept value."""
    lines = ["k_or_load,r_avg_green,r_avg_rr"]
    for value, r_green, r_rr in rows:
        lines.append("%g,%.6f,%.6f" % (value, r_green, r_rr))
    return "\n".join(lines) + "\n"
