import hashlib
import json
import os
import subprocess
import sys

import pytest

import grasp
from grasp.cli import main
from grasp.datafiles import data_path


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = run_cli(
        "run", "--energy-dir", data_path("sites"), "--topology", data_path("geni.topo.json"),
        "--k", "1", "--hours", "24", "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "r_avg=" in printed
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 25
    assert lines[0].startswith("hour,scheduler,k,jobs,n_g,r,dc_0")


def test_run_is_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run_cli("run", "--energy-dir", data_path("sites"), "--hours", "48",
                       "--scheduler", "round_robin", "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_rejects_profile_topology_mismatch(tmp_path):
    topo = {
        "switches": ["s"],
        "links": [],
        "datacenters": [{"name": "d", "switch": "s", "port": 1}],
        "clients": [],
    }
    p = tmp_path / "small.topo.json"
    p.write_text(json.dumps(topo))
    code = run_cli("run", "--energy-dir", data_path("sites"), "--topology", str(p))
    assert code == 1


def test_sweep_k_with_chart(tmp_path):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    code = run_cli(
        "sweep", "--mode", "k", "--range", "1:3:1", "--energy-dir", data_path("sites"),
        "--hours", "24", "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k_or_load,r_avg_green,r_avg_rr"
    assert len(lines) == 4
    text = svg.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert "green aware" in text and "round robin" in text


def test_sweep_load_requires_integers(tmp_path):
    code = run_cli("sweep", "--mode", "load", "--range", "0.5:2:0.5",
                   "--energy-dir", data_path("sites"), "--out", str(tmp_path / "x.csv"))
    assert code == 1


def test_sweep_load_mode(tmp_path):
    args = ["sweep", "--mode", "load", "--range", "100:300:100", "--energy-dir",
            data_path("sites"), "--hours", "24"]
    out = tmp_path / "load.csv"
    assert run_cli(*args, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["100", "200", "300"]


def test_run_rejects_overflowing_k(tmp_path, capsys):
    code = run_cli("run", "--energy-dir", data_path("sites"), "--k", "1e-320", "--hours", "24")
    assert code == 1
    assert "job_energy_wh" in capsys.readouterr().err


def test_scenario_command(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code = run_cli("scenario", "--scenario", data_path("scenario_geni_1h.json"),
                   "--trace-out", str(trace))
    assert code == 0
    printed = capsys.readouterr().out
    assert "packet_ins=139" in printed
    assert "auth_failures=0" in printed
    assert "d0 elmira_corning_regional jobs=0" in printed
    assert "d3 homestead jobs=10" in printed
    assert trace.read_text().count("ev=decision") == 10


def test_scenario_trace_of_1h_demo_is_pinned(tmp_path):
    # the same for every seed: the seed draws only the discovery token and
    # passcodes, which the trace does not print
    for seed in ("0", "5"):
        trace = tmp_path / ("trace-%s.txt" % seed)
        assert run_cli("scenario", "--scenario", data_path("scenario_geni_1h.json"),
                       "--seed", seed, "--trace-out", str(trace)) == 0
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == "e302ec5162e4de7ec209cf1a9e0ba9193b8177a6efb2dc474e130819aca72225"


def test_gen_energy(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("gen-energy", "--shape", "sinusoid", "--peak-wh", "250", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "wh"
    assert len(lines) == 8761
    assert run_cli("validate", "--energy", str(out)) == 0


def test_gen_energy_rejects_bad_peak(tmp_path):
    assert run_cli("gen-energy", "--shape", "zero", "--peak-wh", "-3",
                   "--out", str(tmp_path / "x.csv")) == 1


def test_validate_bundled_inputs(capsys):
    code = run_cli(
        "validate", "--topology", data_path("geni.topo.json"),
        "--config", data_path("controller.json"), "--energy", data_path("sites"),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("OK ") == 3


def test_validate_single_file_uses_the_run_loader(tmp_path, capsys):
    site = data_path("sites", "02_watertown.csv")
    assert run_cli("validate", "--energy", site) == 0
    assert "OK %s (site 02_watertown, 8760 hours)" % site in capsys.readouterr().out
    profile = tmp_path / "p.csv"
    profile.write_text("wh\n" + "1\n" * 20 + "nan\n" + "1\n" * 8739)
    assert run_cli("validate", "--energy", str(profile)) == 1
    assert ":22:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [1, 6])
def test_validate_reports_a_lone_quote_without_a_traceback(tmp_path, line):
    """A lone `"` opens a quoted field that runs past `csv`'s field size
    limit; the command names the line the field starts on and exits 1."""
    with open(data_path("sites", "02_watertown.csv")) as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = '"' + lines[line - 1]
    site = tmp_path / "quoted.csv"
    site.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(grasp.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "grasp.cli", "validate", "--energy", str(site)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: %s:%d: " % (site, line))
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_outputs_honour_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        out = tmp_path / "p.csv"
        assert run_cli("gen-energy", "--shape", "zero", "--out", str(out)) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_validate_nothing_is_an_error():
    assert run_cli("validate") == 1


def test_exit_codes_missing_vs_malformed(tmp_path):
    assert run_cli("validate", "--topology", str(tmp_path / "ghost.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run_cli("validate", "--topology", str(bad)) == 1
    assert run_cli("scenario", "--scenario", str(bad)) == 1
    assert run_cli("scenario", "--scenario", str(tmp_path / "ghost.json")) == 2
    not_text = tmp_path / "not_text.json"
    not_text.write_bytes(b"\xff\xfe{")
    assert run_cli("scenario", "--scenario", str(not_text)) == 1
    assert run_cli("validate", "--config", str(not_text)) == 1
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    assert run_cli("run", "--energy-dir", str(empty_dir)) == 1
    assert run_cli("run", "--energy-dir", str(tmp_path / "ghost_dir")) == 2


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        run_cli("sweep", "--mode", "sideways", "--range", "1:2:1",
                "--energy-dir", "x", "--out", "y")
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run_cli("no-such-command")
    assert err.value.code == 1
    # a sweep always runs both schedulers
    with pytest.raises(SystemExit) as err:
        run_cli("sweep", "--mode", "k", "--range", "1:2:1", "--energy-dir", "x",
                "--out", "y", "--scheduler", "round_robin")
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    ["run", "--energy-dir", "x"],
    ["sweep", "--mode", "k", "--range", "1:2:1", "--energy-dir", "x", "--out", "y"],
    ["gen-energy", "--shape", "zero", "--out", "y"],
    ["validate", "--energy", "x"],
])
def test_seed_only_on_scenario(argv):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--seed", "3")
    assert err.value.code == 1


@pytest.mark.parametrize("text", ["nan:1:1", "0:inf:1", "-inf:1:1", "0:1:nan", "0:1e308:1e-308", "0:1e300:1e-5"])
def test_sweep_rejects_ranges_it_cannot_step(tmp_path, capsys, text):
    code = run_cli("sweep", "--mode", "k", "--range=" + text, "--energy-dir", data_path("sites"),
                   "--hours", "24", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --range: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--energy-dir", data_path("sites"), "--hours", "24"],
    ["sweep", "--mode", "load", "--range", "100:200:100", "--energy-dir", data_path("sites"),
     "--hours", "24", "--out", "never.csv"],
])
@pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
def test_non_finite_k_is_rejected(tmp_path, capsys, monkeypatch, argv, k):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--k=" + k) == 1
    assert capsys.readouterr().err.startswith("error: --k: ")
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("retired", [
    {"parameters": ["green_energy_wh", "cpu_load"]},
    {"parameters": []},
    {"weights": [0.1, 99]},
    {"weights": [1]},
])
def test_validate_refuses_retired_keys_at_other_values(tmp_path, capsys, retired):
    with open(data_path("controller.json")) as fh:
        config = json.load(fh)
    config.update(retired)
    path = tmp_path / "controller.json"
    path.write_text(json.dumps(config))
    assert run_cli("validate", "--config", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: %s: retired key" % next(iter(retired)))
    config.update({"parameters": ["green_energy_wh"], "weights": [1.0]})
    path.write_text(json.dumps(config))
    assert run_cli("validate", "--config", str(path)) == 0
