"""The benchmark's workloads: what each one runs, how it is set up and how
its outputs are checked.

Every workload drives the program only through `grasp.cli.main(argv)`,
one command after another in one thread, writing into a scratch
directory.  Each command's outputs are checked afterwards against
`reference.json`, which holds digests and values taken from the seed
commit; a mismatch fails the iteration and is never re-baselined here
(`make_reference.py` is the deliberate way to regenerate it).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "grasp", "data")
SITES = os.path.join(DATA, "sites")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

HOURS_PER_YEAR = 8760
SECONDS_PER_HOUR = 3600

# protocol_busy draws its fabric from one of this many variants, so that a
# reference digest taken at the seed commit exists for every workload seed
BUSY_VARIANTS = 64
BUSY_ROWS, BUSY_COLUMNS = 4, 6  # torus of switches
BUSY_SWITCHES = BUSY_ROWS * BUSY_COLUMNS
BUSY_CLIENTS_PER_SWITCH = 2
BUSY_HORIZON_S = 180.0
BUSY_IDLE_TIMEOUT_S = 2.0
BUSY_DATA_OFFSETS = (0.25, 0.5)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_cli(argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    from grasp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _scenario_summary(stdout):
    """Counters and per-DC job counts from `grasp scenario` stdout."""
    head = re.search(r"packet_ins=(\d+) auth_failures=(\d+) deliveries=(\d+)", stdout)
    jobs = [int(n) for n in re.findall(r"^d\d+ \S+ jobs=(\d+)$", stdout, flags=re.M)]
    if head is None:
        return None
    return {
        "packet_ins": int(head.group(1)),
        "auth_failures": int(head.group(2)),
        "deliveries": int(head.group(3)),
        "per_dc_jobs": jobs,
    }


class Workload:
    """One named workload.

    `prepare(workdir)` makes the inputs (once per process, untimed),
    `commands()` lists the argv of one iteration, and `observe(results)`
    turns one iteration's exit codes, stdout and output files into the
    dict that `reference.json` holds for it.
    """

    name = ""
    why = ""
    # simulated seconds and jobs placed by one iteration, for the rates
    sim_seconds = 0.0
    placements = 0

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, workdir):
        pass

    def setup_code(self):
        """Python source a fresh interpreter runs to time set-up."""
        raise NotImplementedError

    def commands(self):
        raise NotImplementedError

    def observe(self, results):
        raise NotImplementedError

    def expected(self, reference):
        return reference[self.name]

    def check(self, results, reference):
        """Names of the outputs that differ from the reference (empty if none)."""
        want = self.expected(reference)
        got = self.observe(results)
        return sorted(k for k in want if got.get(k) != want[k])


class PaperFigures(Workload):
    name = "paper_figures"
    why = (
        "the README's run and sweeps on the bundled sites: the greedy hour dominates, "
        "protocol layers idle"
    )
    # README's k sweep is 1:200:10 (k = 1, 11, ..., 191); both ends are kept
    K_RANGE = "1:191:190"
    K_VALUES = (1, 191)
    LOAD_RANGE = "100:900:200"
    LOADS = (100, 300, 500, 700, 900)
    RUN_JOBS = 900

    # year replays: run (1) + k sweep (2 per k) + load sweep (2 per load)
    replays = 1 + 2 * len(K_VALUES) + 2 * len(LOADS)
    sim_seconds = float(replays * HOURS_PER_YEAR * SECONDS_PER_HOUR)
    placements = HOURS_PER_YEAR * (RUN_JOBS + 2 * RUN_JOBS * len(K_VALUES) + 2 * sum(LOADS))

    def setup_code(self):
        return (
            "import grasp\n"
            "from grasp.datafiles import load_profiles_dir\n"
            "load_profiles_dir(%r)\n" % SITES
        )

    def commands(self):
        return [
            ["run", "--energy-dir", SITES, "--k", "1", "--jobs-per-hour", str(self.RUN_JOBS), "--out", "metrics.csv"],
            ["sweep", "--mode", "k", "--range", self.K_RANGE, "--energy-dir", SITES, "--out", "sweep_k.csv", "--svg", "sweep_k.svg"],
            ["sweep", "--mode", "load", "--range", self.LOAD_RANGE, "--energy-dir", SITES, "--out", "sweep_load.csv"],
        ]

    def observe(self, results):
        got = {"exit_codes": [r[0] for r in results]}
        run_out = results[0][1]
        m = re.search(r"^r_avg=(\S+)$", run_out, flags=re.M)
        got["run_r_avg"] = m.group(1) if m else None
        for name in ("metrics.csv", "sweep_k.csv", "sweep_k.svg", "sweep_load.csv"):
            got[name] = sha256_file(name) if os.path.exists(name) else None
        for name, key in (("sweep_k.csv", "sweep_k_rows"), ("sweep_load.csv", "sweep_load_rows")):
            got[key] = csv_rows(name) if os.path.exists(name) else None
        return got


def csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh][1:]


class ProtocolDay(Workload):
    name = "protocol_day"
    why = (
        "bundled 24 h GENI scenario: one tick per simulated second sweeps every flow table, "
        "the controller sees little traffic"
    )
    SCENARIO = os.path.join(DATA, "scenario_geni_24h.json")
    sim_seconds = 86400.0
    placements = 288  # 6 clients x 2 flows/h x 24 h

    def setup_code(self):
        return (
            "import grasp\n"
            "from grasp.netsim import load_scenario\n"
            "load_scenario(%r)\n" % self.SCENARIO
        )

    def commands(self):
        return [["scenario", "--scenario", self.SCENARIO, "--trace-out", "trace.txt"]]

    def observe(self, results):
        rc, stdout, _ = results[0]
        got = {"exit_codes": [rc], "summary": _scenario_summary(stdout)}
        got["trace.txt"] = sha256_file("trace.txt") if os.path.exists("trace.txt") else None
        return got


def busy_scenario(variant):
    """A seeded fabric busier than GENI, as a scenario dict.

    The switches form a torus, placed on it in a seeded order, with the
    same number of clients on every switch and the nine bundled sites as
    responding data centers on seeded distinct switches.  Every switch of
    a torus looks alike and clients cover all of them evenly, so each data
    center is the same mean distance from the clients and each variant
    does about the same work.  Each client opens flows one after another,
    each with data packets, and waits just over the idle timeout after the
    last of them, so every flow's rules have expired and its first packet
    punts to the controller for a fresh decision.

    Simulated time starts at midnight, when no site has solar energy and
    the green-aware policy degrades to round robin.  So the sites' weather
    is replayed from a seeded daytime hour (`start_hour`, see
    `write_busy_weather`), and the scheduler ranks real energy reports.
    """
    rng = random.Random(variant)
    start_hour = rng.randrange(365) * 24 + rng.randrange(10, 15)
    switches = ["s%02d" % i for i in range(BUSY_SWITCHES)]
    at = list(range(BUSY_SWITCHES))  # torus cell -> switch index
    rng.shuffle(at)
    next_port = [1] * BUSY_SWITCHES

    def port(i):
        p = next_port[i]
        next_port[i] += 1
        return p

    links = []
    for cell in range(BUSY_SWITCHES):
        r, c = divmod(cell, BUSY_COLUMNS)
        right = r * BUSY_COLUMNS + (c + 1) % BUSY_COLUMNS
        down = ((r + 1) % BUSY_ROWS) * BUSY_COLUMNS + c
        for other in (right, down):
            a, b = at[cell], at[other]
            links.append({"a": switches[a], "a_port": port(a), "b": switches[b], "b_port": port(b)})

    site_files = sorted(f for f in os.listdir(SITES) if f.endswith(".csv"))
    datacenters, agents = [], []
    dc_switches = rng.sample(range(BUSY_SWITCHES), len(site_files))
    for i, f in enumerate(site_files):
        name = os.path.splitext(f)[0].split("_", 1)[1]
        sw = dc_switches[i]
        datacenters.append({"name": name, "switch": switches[sw], "port": port(sw)})
        agents.append(
            {
                "dc": name,
                "register_at": round(0.5 + 0.1 * i, 3),
                "respond": True,
                "profile": {"weather_csv": f},
            }
        )

    clients, traffic = [], []
    busy_for = BUSY_DATA_OFFSETS[-1] + BUSY_IDLE_TIMEOUT_S
    for c in range(BUSY_SWITCHES * BUSY_CLIENTS_PER_SWITCH):
        name = "c%02d" % c
        sw = c % BUSY_SWITCHES
        clients.append({"name": name, "switch": switches[sw], "port": port(sw)})
        flows = []
        t = round(2.0 + rng.uniform(0.0, busy_for), 3)
        while t + BUSY_DATA_OFFSETS[-1] < BUSY_HORIZON_S:
            flows.append(
                {"id": "%s-%d" % (name, len(flows)), "open_at": t, "data_at": [round(t + d, 3) for d in BUSY_DATA_OFFSETS]}
            )
            t = round(t + busy_for + rng.uniform(0.05, 0.45), 3)
        traffic.append({"client": name, "flows": flows})

    return start_hour, {
        "topology": {"switches": switches, "links": links, "datacenters": datacenters, "clients": clients},
        "config": {
            "parameters": ["green_energy_wh"],
            "weights": [1.0],
            "report_period": 60.0,
            "flow_idle_timeout": BUSY_IDLE_TIMEOUT_S,
            "scheduler": "green_aware",
            "job_energy_wh": 1.0,
        },
        "horizon": BUSY_HORIZON_S,
        "agents": agents,
        "clients": traffic,
    }


def write_busy_weather(start_hour, workdir):
    """Copy each bundled weather CSV into `workdir`, rows rotated so that
    the first data row is `start_hour` of the original year."""
    for f in sorted(os.listdir(SITES)):
        if not f.endswith(".csv"):
            continue
        with open(os.path.join(SITES, f)) as fh:
            header, *rows = fh.read().splitlines()
        rows = rows[start_hour:] + rows[:start_hour]
        rows = ["%d,%s" % (i, r.split(",", 1)[1]) for i, r in enumerate(rows)]
        with open(os.path.join(workdir, f), "w") as fh:
            fh.write("\n".join([header] + rows) + "\n")


def scenario_digest(scenario):
    return hashlib.sha256(json.dumps(scenario, sort_keys=True).encode()).hexdigest()


class ProtocolBusy(Workload):
    name = "protocol_busy"
    why = (
        "seeded fabric of tens of switches and clients whose flows outlive their rules: "
        "every flow punts, so the controller and flow tables dominate"
    )
    sim_seconds = BUSY_HORIZON_S

    def __init__(self, seed):
        super().__init__(seed)
        self.variant = seed % BUSY_VARIANTS
        self.start_hour, self.scenario = busy_scenario(self.variant)
        self.placements = sum(len(c["flows"]) for c in self.scenario["clients"])
        self.path = None

    def prepare(self, workdir):
        write_busy_weather(self.start_hour, workdir)
        self.path = os.path.join(os.path.abspath(workdir), "busy_scenario.json")
        with open(self.path, "w") as fh:
            json.dump(self.scenario, fh)

    def setup_code(self):
        return (
            "import grasp\n"
            "from grasp.netsim import load_scenario\n"
            "load_scenario(%r)\n" % self.path
        )

    def commands(self):
        # the controller gets the same seed as the generated fabric
        return [["scenario", "--scenario", self.path, "--seed", str(self.variant), "--trace-out", "trace.txt"]]

    def expected(self, reference):
        return reference[self.name][str(self.variant)]

    def observe(self, results):
        rc, stdout, _ = results[0]
        got = {
            "exit_codes": [rc],
            "scenario_sha256": scenario_digest([self.start_hour, self.scenario]),
            "summary": _scenario_summary(stdout),
        }
        got["trace.txt"] = sha256_file("trace.txt") if os.path.exists("trace.txt") else None
        return got


WORKLOADS = {w.name: w for w in (PaperFigures, ProtocolDay, ProtocolBusy)}
