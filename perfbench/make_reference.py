"""Check, or deliberately rewrite, the benchmark's reference outputs.

    python3 perfbench/make_reference.py            # compare with reference.json
    python3 perfbench/make_reference.py --write    # rewrite reference.json

Runs one iteration of every workload, and of every protocol_busy
variant, and prints each output that differs from `reference.json`.
The stored reference was taken at the seed commit; `--write` replaces it
and belongs only in a change that says which output changed and why.

It also runs the README's full `sweep --mode k --range 1:200:10` once
and checks that the rows of the benchmark's trimmed k sweep are rows of
it, so the benchmark's k sweep stays a subset of the paper figure.
"""

import argparse
import json
import os
import shutil
import sys

from workloads import BUSY_VARIANTS, REFERENCE, ROOT, SITES, SRC, WORKLOADS, csv_rows, run_cli, sha256_file

README_K_SWEEP = ["sweep", "--mode", "k", "--range", "1:200:10", "--energy-dir", SITES, "--out", "readme_k.csv"]


def observe_once(workload, workdir):
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    os.chdir(outdir)
    try:
        workload.prepare(workdir)
        results = [run_cli(argv) for argv in workload.commands()]
        return workload.observe(results)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help="rewrite reference.json from this tree")
    args = p.parse_args(argv)
    sys.path.insert(0, SRC)
    os.environ.pop("GRASP_SEED", None)
    scratch = os.path.join(ROOT, ".perfbench_out", "reference-%d" % os.getpid())

    observed = {}
    for name, cls in WORKLOADS.items():
        if name == "protocol_busy":
            observed[name] = {}
            for v in range(BUSY_VARIANTS):
                observed[name][str(v)] = observe_once(cls(v), os.path.join(scratch, "%s-%d" % (name, v)))
        else:
            observed[name] = observe_once(cls(0), os.path.join(scratch, name))

    readme_dir = os.path.join(scratch, "readme")
    os.makedirs(readme_dir)
    os.chdir(readme_dir)
    try:
        rc, _, err = run_cli(README_K_SWEEP)
        if rc != 0:
            sys.stderr.write(err)
            return 1
        readme_rows = csv_rows("readme_k.csv")
        observed["readme"] = {"sweep_k_1_200_10.csv": sha256_file("readme_k.csv")}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch)
    problems = []
    missing = [r for r in observed["paper_figures"]["sweep_k_rows"] if r not in readme_rows]
    if missing:
        problems.append("paper_figures k sweep rows not in the README sweep: %s" % missing)

    if args.write and not problems:
        observed["_about"] = (
            "Outputs of one iteration of each workload; protocol_busy is keyed by variant "
            "(seed mod %d). Rewritten only by make_reference.py --write." % BUSY_VARIANTS
        )
        with open(REFERENCE, "w") as fh:
            json.dump(observed, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % REFERENCE)
    elif not args.write:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        for name, got in observed.items():
            want = reference.get(name)
            if name == "protocol_busy":
                pairs = [("%s[%s]" % (name, v), want.get(v), got[v]) for v in sorted(got, key=int)]
            else:
                pairs = [(name, want, got)]
            for label, w, g in pairs:
                if w != g:
                    keys = sorted(k for k in set(w or {}) | set(g) if (w or {}).get(k) != g.get(k))
                    problems.append("%s differs in %s" % (label, ", ".join(keys)))
    for line in problems:
        print("MISMATCH " + line)
    if not problems:
        print("all outputs match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
