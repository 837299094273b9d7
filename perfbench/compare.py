#!/usr/bin/env python3
"""Compare command: a parent result set against a change result set.

    python3 perfbench/compare.py PARENT.json CHANGE.json
    python3 perfbench/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--runs 10] [--workloads info,jobs,sessions] [--seed-base N] \
        [--out-dir DIR]

With two files (saved by steady.py or by --run), run i of a workload in
one file is paired with run i of the same workload in the other (set A
runs first, then set B). With --run it makes the sets itself: for each
pair it runs both checkouts on the same seed, alternating which side
goes first, and saves parent.json and change.json to --out-dir.

For each workload and end-to-end metric it prints both medians, both
quartiles, the share of pairs the change won (ties count for neither)
and a verdict: improved only when the change wins at least 9 of 10
pairs and the medians differ by more than the parent's interquartile
range; unresolved when either side's spread is wider than the metric's
bound (unless every change run beats every parent run); regressed when
the change's median is worse by more than the bound; else unchanged.
"""

import argparse
import json
import os
import sys

import benchlib


def ordered(runs, workload):
    """A workload's untraced runs in pairing order."""
    rs = [r for r in runs if r["workload"] == workload and not r.get("trace")
          and r.get("result")]
    return sorted(rs, key=lambda r: (r.get("pair", 0), r.get("set", "")))


def run_pairs(args, spec):
    parent, change = [], []
    workloads = args.workloads.split(",")
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            sides = [("parent", args.run[0], parent), ("change", args.run[1], change)]
            if i % 2:
                sides.reverse()
            for side, root, sink in sides:
                out = benchlib.run_once(w, seed, spec["run_seconds"], False,
                                        root=os.path.abspath(root))
                out.update(workload=w, pair=i, seed=seed, trace=False)
                sink.append(out)
                print("pair %2d %-8s %-6s seed %d: code %d"
                      % (i + 1, w, side, seed, out["code"]), file=sys.stderr)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, runs in (("parent", parent), ("change", change)):
        with open(os.path.join(args.out_dir, name + ".json"), "w") as f:
            json.dump({"seconds": spec["run_seconds"], "runs": runs}, f)
    return parent, change


def report(parent, change, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-9s %-18s %11s %11s %11s | %11s %11s %11s | %5s %s"
          % ("workload", "metric", "parent q1", "median", "q3",
             "change q1", "median", "q3", "won", "verdict"))
    for w in workloads:
        p_runs, c_runs = ordered(parent, w), ordered(change, w)
        n = min(len(p_runs), len(c_runs))
        if n < 2:
            print("%-9s too few paired runs (%d)" % (w, n))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["result"]["metrics"][name]["value"] for r in p_runs[:n]]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs[:n]]
            qp, qc = benchlib.quartiles(p), benchlib.quartiles(c)
            v, won = benchlib.verdict(p, c, m["better"], m["bound"])
            print("%-9s %-18s %11s %11s %11s | %11s %11s %11s | %4.0f%% %s"
                  % (w, name, benchlib.fmt(qp[0]), benchlib.fmt(qp[1]),
                     benchlib.fmt(qp[2]), benchlib.fmt(qc[0]),
                     benchlib.fmt(qc[1]), benchlib.fmt(qc[2]), 100 * won, v))
        for label, runs in (("parent", p_runs[:n]), ("change", c_runs[:n])):
            att = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print("%-9s %s failed %d of %d operations" % (w, label, failed, att))


def main():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--run", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=5000)
    ap.add_argument("--out-dir", default=os.path.join(benchlib.ROOT, ".bench_tmp",
                                                      "compare"))
    args = ap.parse_args()
    if args.run:
        parent, change = run_pairs(args, spec)
    elif len(args.files) == 2:
        with open(args.files[0]) as f:
            parent = json.load(f)["runs"]
        with open(args.files[1]) as f:
            change = json.load(f)["runs"]
    else:
        benchlib.die("give two result files, or --run PARENT CHANGE")
    report(parent, change, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
