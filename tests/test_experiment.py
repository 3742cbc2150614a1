import itertools

import numpy as np
import pytest

from grasp.energy import synth_profile
from grasp.errors import ValidationError
from grasp.experiment import (
    metrics_csv_text,
    run_year,
    sweep_csv_text,
    sweep_k,
    sweep_load,
)


def const_profiles(*peaks):
    return [synth_profile("constant" if p else "zero", p) for p in peaks]


def test_run_year_hand_trace():
    # scores0 [3, 0]: greedy places 4 jobs on d0 (tie at 0 goes low), then d1
    rep = run_year(const_profiles(3.0, 0.0), "green_aware", 1.0, 5, hours=2)
    assert rep.per_dc_load.tolist() == [[4, 1], [4, 1]]
    assert rep.green_jobs.tolist() == [3.0, 3.0]
    assert rep.ratio.tolist() == [0.6, 0.6]
    assert rep.r_avg == pytest.approx(0.6)

    rr = run_year(const_profiles(3.0, 0.0), "round_robin", 1.0, 5, hours=2)
    # cursor carries over the hour boundary: [3, 2] then [2, 3]
    assert rr.per_dc_load.tolist() == [[3, 2], [2, 3]]
    assert rr.r_avg == pytest.approx((0.6 + 0.4) / 2)


def test_run_year_zero_jobs():
    rep = run_year(const_profiles(1.0), jobs_per_hour=0, hours=3)
    assert rep.ratio.tolist() == [1.0, 1.0, 1.0]
    assert rep.r_avg == 1.0


def test_run_year_rejects():
    profiles = const_profiles(1.0)
    with pytest.raises(ValidationError):
        run_year(profiles, scheduler="fifo")
    with pytest.raises(ValidationError):
        run_year([])
    with pytest.raises(ValidationError):
        run_year(profiles, job_energy_wh=0.0)
    with pytest.raises(ValidationError):
        run_year(profiles, jobs_per_hour=-1)
    with pytest.raises(ValidationError):
        run_year(profiles, hours=0)
    with pytest.raises(ValidationError):
        run_year(profiles, hours=9000)
    with pytest.raises(ValidationError):
        run_year(profiles, jobs_per_hour=2**48)


@pytest.mark.parametrize("k", [1e-320, 1e-300])
def test_run_year_rejects_overflowing_capacity(k):
    # 1 Wh / 1e-320 Wh is inf, 1 Wh / 1e-300 Wh far past 2**48 jobs
    with pytest.raises(ValidationError, match="job_energy_wh"):
        run_year(const_profiles(1.0, 0.0), job_energy_wh=k, hours=2)
    # without energy the capacity stays 0 and any k is fine
    assert run_year(const_profiles(0.0), job_energy_wh=k, hours=2).r_avg == 0.0


def brute_force_best(caps, jobs):
    best = -1.0
    for splits in itertools.combinations(range(jobs + len(caps) - 1), len(caps) - 1):
        loads = []
        prev = -1
        for s in splits:
            loads.append(s - prev - 1)
            prev = s
        loads.append(jobs + len(caps) - 2 - prev)
        best = max(best, float(np.minimum(caps, loads).sum()))
    return best


def test_greedy_hour_is_optimal_small():
    rng = np.random.default_rng(7)
    from grasp._kernels import greedy_hour

    for _ in range(60):
        m = int(rng.integers(1, 4))
        jobs = int(rng.integers(0, 9))
        caps = np.round(rng.uniform(0.0, jobs + 1, size=m), 1)
        loads = greedy_hour(caps.astype(float), jobs)
        assert loads.sum() == jobs
        got = float(np.minimum(caps, loads).sum())
        assert got == pytest.approx(brute_force_best(caps, jobs), abs=1e-9)


def test_sweeps(site_profiles):
    ks = [1.0, 4.0]
    rows = sweep_k(site_profiles, ks, jobs_per_hour=90, hours=48)
    assert [r[0] for r in rows] == ks

    loads = [10, 50]
    lrows = sweep_load(site_profiles, loads, hours=48)
    assert [r[0] for r in lrows] == loads
    assert all(0.0 <= r[1] <= 1.0 and 0.0 <= r[2] <= 1.0 for r in lrows)


def test_year_regression_on_bundled_profiles(site_profiles):
    rep = run_year(site_profiles, "green_aware", 1.0, 900)
    rr = run_year(site_profiles, "round_robin", 1.0, 900)
    assert rep.r_avg == pytest.approx(0.298644, abs=1e-6)
    assert rr.r_avg == pytest.approx(0.278294, abs=1e-6)
    assert rep.hours == 8760
    assert int(rep.per_dc_load.sum()) == 8760 * 900


def test_metrics_csv_shape():
    rep = run_year(const_profiles(2.0, 0.0), "green_aware", 1.0, 3, hours=2)
    text = metrics_csv_text([rep])
    lines = text.strip().split("\n")
    assert lines[0] == "hour,scheduler,k,jobs,n_g,r,dc_0,dc_1"
    assert lines[1] == "0,green_aware,1,3,2.000000,0.666667,3,0"
    assert len(lines) == 3

    assert rep.green_jobs[1] == 2.0
    assert rep.per_dc_load[1].tolist() == [3, 0]


def test_sweep_csv_shape():
    text = sweep_csv_text([(1.0, 0.5, 0.25), (200.0, 0.125, 0.125)])
    assert text == "k_or_load,r_avg_green,r_avg_rr\n1,0.500000,0.250000\n200,0.125000,0.125000\n"
