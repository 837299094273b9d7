#!/usr/bin/env python3
"""Steadiness command: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py [--runs 10] [--workloads info,jobs,sessions]
        [--seconds S] [--seed-base N] [--traced K] [--out FILE]
    python3 perfbench/steady.py --from FILE

For run i and each workload it runs set A with seed base+2i and set B
with seed base+2i+1, back to back, so slow drift of the host lands in
both sets alike. For each end-to-end metric it prints both sets' median
and quartiles, the spread (interquartile range over median) and whether
the two sets agree within the metric's bound in BENCHMARK.json: each
spread within the bound (setup_s excepted), and B's median no worse
than A's by more than the bound. It also prints the spread the bound
should at least cover (three times the larger spread), the share of
failed operations of each set, tails from the runs' detail lines, and
with --traced K, K traced runs per workload: their per-layer medians and
the tracing overhead (traced against untraced end-to-end medians).

All runs are saved to --out (default .bench_tmp/steady.json) for
compare.py and for the README's reference figures; --from FILE prints
the same report from saved runs against the current BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys
import time

import benchlib


def parse():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(benchlib.ROOT, ".bench_tmp",
                                                  "steady.json"))
    ap.add_argument("--from", dest="saved")
    return ap.parse_args(), spec


def collect(args):
    runs = []
    workloads = args.workloads.split(",")
    for i in range(args.runs):
        for w in workloads:
            for set_name, seed in (("A", args.seed_base + 2 * i),
                                   ("B", args.seed_base + 2 * i + 1)):
                t0 = time.time()
                out = benchlib.run_once(w, seed, args.seconds, False)
                out.update(workload=w, set=set_name, seed=seed, trace=False,
                           wall=time.time() - t0)
                runs.append(out)
                status = "ok" if out["code"] == 0 else "FAILED %s" % out["code"]
                print("run %2d %-8s set %s seed %d: %s (%.1f s)"
                      % (i + 1, w, set_name, seed, status, out["wall"]),
                      file=sys.stderr)
                if out["code"] != 0:
                    print(out["stderr"], file=sys.stderr)
    for i in range(args.traced):
        for w in workloads:
            seed = args.seed_base + 10_000 + i
            out = benchlib.run_once(w, seed, args.seconds, True)
            out.update(workload=w, set="T", seed=seed, trace=True)
            runs.append(out)
            print("traced %d %-8s seed %d: code %d" % (i + 1, w, seed, out["code"]),
                  file=sys.stderr)
    return runs


def values(runs, w, set_name, name, key="result"):
    out = []
    for r in runs:
        if r["workload"] == w and r["set"] == set_name and r.get(key):
            block = r[key]["metrics"] if key == "result" else r[key]
            if name in block:
                v = block[name]
                out.append(v["value"] if isinstance(v, dict) else v)
    return out


def failed_share(runs, w, set_name):
    rs = [r["result"] for r in runs
          if r["workload"] == w and r["set"] == set_name and r.get("result")]
    att = sum(r["attempted"] for r in rs)
    return sum(r["failed"] for r in rs) / att if att else float("nan"), len(rs)


def report(runs, spec, workloads):
    ok = True
    print("%-9s %-18s %11s %11s %11s %7s | %11s %11s %11s %7s | %6s %5s %s"
          % ("workload", "metric", "A q1", "A median", "A q3", "spread",
             "B q1", "B median", "B q3", "spread", "shift", "need", "agree"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = values(runs, w, "A", name)
            b = values(runs, w, "B", name)
            if len(a) < 2 or len(b) < 2:
                print("%-9s %-18s too few runs" % (w, name))
                ok = False
                continue
            qa, qb = benchlib.quartiles(a), benchlib.quartiles(b)
            sa, sb = benchlib.spread(a), benchlib.spread(b)
            shift = benchlib.worse_by(qa[1], qb[1], better)
            agree = shift <= bound and (name == "setup_s"
                                        or (sa <= bound and sb <= bound))
            ok &= agree
            print("%-9s %-18s %11s %11s %11s %6.1f%% | %11s %11s %11s %6.1f%% | %5.1f%% %4.0f%% %s"
                  % (w, name, benchlib.fmt(qa[0]), benchlib.fmt(qa[1]),
                     benchlib.fmt(qa[2]), 100 * sa, benchlib.fmt(qb[0]),
                     benchlib.fmt(qb[1]), benchlib.fmt(qb[2]), 100 * sb,
                     100 * shift, 300 * max(sa, sb), "yes" if agree else "NO"))
        fa, na = failed_share(runs, w, "A")
        fb, nb = failed_share(runs, w, "B")
        same = fa == fb
        ok &= same
        print("%-9s failed share A %.6f (%d runs)  B %.6f (%d runs)  %s"
              % (w, fa, na, fb, nb, "same" if same else "DIFFERENT"))
        tails = []
        for key in ("latency", "submit_ack", "connect"):
            p99 = values(runs, w, "A", key + "_p99_us", "detail") + \
                values(runs, w, "B", key + "_p99_us", "detail")
            n = values(runs, w, "A", key + "_samples", "detail") + \
                values(runs, w, "B", key + "_samples", "detail")
            if p99:
                tails.append("%s p99 median %s us over %s samples/run"
                             % (key, benchlib.fmt(statistics.median(p99)),
                                benchlib.fmt(statistics.median(n))))
        print("%-9s %s" % (w, "; ".join(tails)))
    return ok


def report_traced(runs, spec, workloads):
    traced = [r for r in runs if r["set"] == "T"]
    if not traced:
        return
    print("\nTracing overhead (traced-run end-to-end median vs untraced A+B median):")
    for w in workloads:
        parts = []
        for m in spec["end_to_end"]:
            t = values(runs, w, "T", m["name"], "traced_e2e")
            u = values(runs, w, "A", m["name"]) + values(runs, w, "B", m["name"])
            if t and u:
                tm, um = statistics.median(t), statistics.median(u)
                parts.append("%s %+.0f%%" % (m["name"], 100 * (tm - um) / um))
        print("  %-9s %s" % (w, ", ".join(parts)))
    print("\nPer-layer medians over traced runs:")
    print("  %-28s %-10s" % ("metric", "unit") +
          "".join("%14s" % w for w in workloads))
    for m in spec["per_layer"]:
        row = []
        for w in workloads:
            v = values(runs, w, "T", m["name"])
            row.append(benchlib.fmt(statistics.median(v)) if v else "-")
        print("  %-28s %-10s" % (m["name"], m["unit"]) +
              "".join("%14s" % x for x in row))


def main():
    args, spec = parse()
    if args.saved:
        with open(args.saved) as f:
            runs = json.load(f)["runs"]
        workloads = list(dict.fromkeys(r["workload"] for r in runs))
    else:
        runs = collect(args)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "runs": runs}, f)
        print("saved %d runs to %s\n" % (len(runs), args.out), file=sys.stderr)
        workloads = args.workloads.split(",")
    ok = report(runs, spec, workloads)
    report_traced(runs, spec, workloads)
    failures = [r for r in runs if r["code"] != 0]
    if failures:
        print("\n%d runs failed" % len(failures))
    print("\nsteady: %s" % ("all metrics agree within their bounds"
                            if ok and not failures else "NOT steady"))
    return 0 if ok and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
