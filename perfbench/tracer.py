"""Spans and counts recorded around calls into grasp's public functions.

`Tracer.install()` replaces module attributes and class methods with
thin wrappers that open a span (name, start, end, parent) and bump
counters, and `uninstall()` puts the originals back, so untraced
iterations run the program untouched.  Spans stay in memory until the
benchmark writes them out.
"""

import statistics
import time
from array import array
from collections import Counter

# every kind the simulator schedules, packet-in kind and drop reason the
# controller returns; each gets a per-layer count, zero when unseen
EVENT_KINDS = ("tick", "deliver", "connect", "agent_register", "agent_report", "flow_open", "flow_data", "snapshot")
PACKET_IN_KINDS = ("discover", "register", "report", "request", "data", "response")
DROP_REASONS = (
    "bad_token",
    "bad_discover_origin",
    "unknown_reporter",
    "bad_passcode",
    "bad_report",
    "no_datacenter",
    "no_path",
)

# spans whose busy time is reported, and those whose self time is too
TIMED = (
    "energy.parse_nsrdb_csv",
    "energy.build_profile",
    "datafiles.load_profiles_dir",
    "netsim.load_scenario",
    "netsim.run_scenario",
    "experiment.run_year.green_aware",
    "experiment.run_year.round_robin",
    "kernels.greedy_hour",
    "experiment.metrics_csv_text",
    "experiment.sweep_csv_text",
    "svgchart.line_chart",
    "netsim.run",
    "netsim.flowtable.expire",
    "netsim.flowtable.lookup",
    "netsim.flowtable.install",
    "controller.on_packet_in",
    "controller.compute_path",
    "controller.install_path",
    "scheduler.decide",
)
WITH_SELF = (
    "datafiles.load_profiles_dir",
    "netsim.load_scenario",
    "netsim.run_scenario",
    "experiment.run_year.green_aware",
    "experiment.run_year.round_robin",
    "netsim.run",
    "netsim.flowtable.lookup",
    "controller.on_packet_in",
)
CALLS = (
    "experiment.run_year",
    "kernels.greedy_hour",
    "netsim.flowtable.expire",
    "netsim.flowtable.lookup",
    "netsim.flowtable.install",
    "controller.on_packet_in",
    "controller.compute_path",
    "scheduler.decide",
)
COUNTS = (
    "energy.rows",
    "experiment.sweep.cells",
    "cli.out_bytes",
    "controller.auth_failures",
    "controller.flow_mods",
    "controller.on_hour.calls",
)
# bench.iteration and cli.main are the benchmark's own spans; their self
# time is the part of an iteration that no layer span explains
ROOT_SPAN = "bench.iteration"
CLI_SPAN = "cli.main"


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for n in TIMED:
        names[n + ".s"] = "s"
    for n in WITH_SELF:
        names[n + ".self_s"] = "s"
    for n in CALLS:
        names[n + ".calls"] = "count"
    for n in COUNTS:
        names[n] = "bytes" if n == "cli.out_bytes" else "count"
    for k in EVENT_KINDS:
        names["netsim.events." + k] = "count"
    for k in PACKET_IN_KINDS:
        names["controller.packet_in." + k] = "count"
    for r in DROP_REASONS:
        names["controller.drops." + r] = "count"
    names["netsim.flowtable.peak_rules"] = "count"
    names["netsim.flowtable.expire.useful_ratio"] = "ratio"
    names["netsim.fast_path_ratio"] = "ratio"
    names["trace.wall_s"] = "s"
    names["trace.untraced_wall_s"] = "s"
    names["trace.overhead_s"] = "s"
    names["trace.overhead_ratio"] = "ratio"
    names["trace.other_s"] = "s"
    names["trace.other_ratio"] = "ratio"
    return names


class Tracer:
    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self.counts = Counter()

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(i)

    def summary(self):
        """Busy and self seconds per span name, and span counts."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        busy, own, calls = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            busy[name] += d
            own[name] += d - child[i]
            calls[name] += 1
        return busy, own, calls

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.names else 0.0
            for i, name in enumerate(self.names):
                fh.write("%d,%s,%.9f,%.9f,%d\n" % (i, name, self.starts[i] - t0, self.ends[i] - t0, self.parents[i]))

    # -- instrumentation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def install(self):
        import grasp._kernels as kernels
        import grasp.cli as cli
        import grasp.controller as controller
        import grasp.datafiles as datafiles
        import grasp.experiment as experiment
        import grasp.netsim as netsim

        counts = self.counts
        patch, timed = self._patch, self._timed

        def count_rows(records, *a, **k):
            counts["energy.rows"] += len(records)

        for mod in (datafiles, netsim):
            patch(mod, "parse_nsrdb_csv", timed("energy.parse_nsrdb_csv", mod.parse_nsrdb_csv, count_rows))
            patch(mod, "build_profile", timed("energy.build_profile", mod.build_profile))
        patch(cli, "load_profiles_dir", timed("datafiles.load_profiles_dir", cli.load_profiles_dir))
        patch(netsim, "load_scenario", timed("netsim.load_scenario", netsim.load_scenario))

        def traced_run_year(original):
            def wrapper(profiles, scheduler="green_aware", *args, **kwargs):
                counts["experiment.run_year.calls"] += 1
                return self.span("experiment.run_year." + scheduler, original, profiles, scheduler, *args, **kwargs)

            return wrapper

        patch(cli, "run_year", traced_run_year(cli.run_year))
        patch(experiment, "run_year", traced_run_year(experiment.run_year))
        if "greedy_hour" in kernels.__dict__:
            patch(kernels, "greedy_hour", timed("kernels.greedy_hour", kernels.greedy_hour))

        def count_cells(rows, *a, **k):
            counts["experiment.sweep.cells"] += len(rows)

        patch(cli, "sweep_k", timed("experiment.sweep_k", cli.sweep_k, count_cells))
        patch(cli, "sweep_load", timed("experiment.sweep_load", cli.sweep_load, count_cells))
        patch(cli, "metrics_csv_text", timed("experiment.metrics_csv_text", cli.metrics_csv_text))
        patch(cli, "sweep_csv_text", timed("experiment.sweep_csv_text", cli.sweep_csv_text))
        patch(cli, "line_chart", timed("svgchart.line_chart", cli.line_chart))

        def count_auth(report, *a, **k):
            counts["controller.auth_failures"] += report.auth_failures

        patch(cli, "run_scenario", timed("netsim.run_scenario", cli.run_scenario, count_auth))

        sim = netsim.Simulation
        schedule = sim.schedule

        def counted_schedule(sim_self, time_, kind, payload=None):
            counts["netsim.events." + kind] += 1
            return schedule(sim_self, time_, kind, payload)

        patch(sim, "schedule", counted_schedule)
        patch(sim, "run", timed("netsim.run", sim.run))

        table = netsim.FlowTable

        def count_expire(dead, *a, **k):
            counts["netsim.flowtable.expire.useful"] += bool(dead)

        def count_lookup(rule, *a, **k):
            if rule is not None:
                counts["netsim.flowtable.lookup.matched"] += 1
                counts["netsim.flowtable.lookup.forwarded"] += rule.actions[-1][0] != "controller"

        def count_rules(_, table_self, *a, **k):
            if len(table_self.rules) > counts["netsim.flowtable.peak_rules"]:
                counts["netsim.flowtable.peak_rules"] = len(table_self.rules)

        patch(table, "expire", timed("netsim.flowtable.expire", table.expire, count_expire))
        patch(table, "lookup", timed("netsim.flowtable.lookup", table.lookup, count_lookup))
        patch(table, "install", timed("netsim.flowtable.install", table.install, count_rules))

        ctl = controller.Controller

        def count_packet_in(resp, ctl_self, pkt_in, *a, **k):
            counts["controller.packet_in." + pkt_in.packet.kind] += 1
            counts["controller.flow_mods"] += len(resp.flow_mods)
            if resp.dropped:
                counts["controller.drops." + resp.dropped] += 1

        def count_mods(resp, *a, **k):
            counts["controller.flow_mods"] += len(resp.flow_mods)

        def count_hour(*a, **k):
            counts["controller.on_hour.calls"] += 1

        patch(ctl, "on_packet_in", timed("controller.on_packet_in", ctl.on_packet_in, count_packet_in))
        patch(ctl, "on_switch_connect", timed("controller.on_switch_connect", ctl.on_switch_connect, count_mods))
        patch(ctl, "compute_path", timed("controller.compute_path", ctl.compute_path))
        patch(ctl, "install_path", timed("controller.install_path", ctl.install_path))
        patch(ctl, "on_hour", timed("controller.on_hour", ctl.on_hour, count_hour))

        get_scheduler = controller.get_scheduler
        patch(controller, "get_scheduler", lambda name: timed("scheduler.decide", get_scheduler(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def iteration_layers(tracer, out_bytes):
    """Per-layer metrics of one traced iteration; `combine` adds the tracing overhead."""
    busy, own, calls = tracer.summary()
    c = tracer.counts
    m = {}
    for n in TIMED:
        m[n + ".s"] = busy[n]
    for n in WITH_SELF:
        m[n + ".self_s"] = own[n]
    for n in CALLS:
        m[n + ".calls"] = c[n + ".calls"] if n == "experiment.run_year" else calls[n]
    for n in COUNTS:
        m[n] = c[n]
    m["cli.out_bytes"] = out_bytes
    for k in EVENT_KINDS:
        m["netsim.events." + k] = c["netsim.events." + k]
    for k in PACKET_IN_KINDS:
        m["controller.packet_in." + k] = c["controller.packet_in." + k]
    for r in DROP_REASONS:
        m["controller.drops." + r] = c["controller.drops." + r]
    m["netsim.flowtable.peak_rules"] = c["netsim.flowtable.peak_rules"]
    m["netsim.flowtable.expire.useful_ratio"] = _ratio(c["netsim.flowtable.expire.useful"], calls["netsim.flowtable.expire"])
    m["netsim.fast_path_ratio"] = _ratio(c["netsim.flowtable.lookup.forwarded"], c["netsim.flowtable.lookup.matched"])
    m["trace.wall_s"] = busy[ROOT_SPAN]
    m["trace.other_s"] = own[ROOT_SPAN] + own[CLI_SPAN]
    return m


def combine(per_iteration, untraced_walls):
    """Median of each layer metric over traced iterations, plus the
    tracing overhead against the untraced iterations of the same run."""
    names = per_iteration[0].keys()
    m = {n: statistics.median(it[n] for it in per_iteration) for n in names}
    m["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.overhead_ratio"] = _ratio(m["trace.overhead_s"], m["trace.untraced_wall_s"])
    m["trace.other_ratio"] = _ratio(m["trace.other_s"], m["trace.wall_s"])
    return m
