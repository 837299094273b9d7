"""Shared helpers for the benchmark's Python commands: BENCHMARK.json,
one benchmark run, quartiles, and the agreement and verdict rules."""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def metric_table(spec, trace):
    """{name: (unit, better, bound)} of the metrics a run prints."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: (m["unit"], m["better"], m.get("bound")) for m in rows}


def check_result(result, spec, trace):
    """Problems with one result line, as a list of strings."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    table = metric_table(spec, trace)
    got = result["metrics"]
    for name in sorted(set(table) - set(got)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(got) - set(table)):
        problems.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(table) & set(got)):
        unit = got[name].get("unit")
        if unit != table[name][0]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, unit, table[name][0]))
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("metric %s has no numeric value" % name)
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    return problems


def run_once(workload, seed, seconds, trace, root=ROOT, timeout=900):
    """Run the benchmark command once from `root`; return the parsed
    output: {"result", "host", "detail", "traced_e2e", "code"}."""
    spec = load_spec(os.path.join(root, "BENCHMARK.json"))
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    out = {"code": proc.returncode, "result": None, "host": None,
           "detail": None, "traced_e2e": None, "stderr": proc.stderr[-4000:]}
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        key = {"host": "host", "detail": "detail",
               "traced-e2e": "traced_e2e"}.get(tag)
        if key:
            out[key] = json.loads(body)
    if lines:
        try:
            out["result"] = json.loads(lines[-1])
        except ValueError:
            pass
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them
    (its default, exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def verdict(parent, change, better, bound):
    """Classify a change against its parent from paired runs
    (parent[i] and change[i] ran back to back).

    improved: the change wins at least 9 of 10 pairs (ties count for
    neither) and the medians differ, in its favour, by more than the
    parent's interquartile range. unresolved: either side's spread is
    wider than the bound, unless every change run beats every parent
    run. regressed: the change's median is worse by more than the bound.
    Otherwise unchanged."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs
               if (c < p if better == "lower" else c > p))
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = -worse_by(pm, cm, better) * pm
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if bound is not None and (spread(parent) > bound or spread(change) > bound) \
            and not all_better:
        return "unresolved", win_share
    if win_share >= 0.9 and gain > (p3 - p1):
        return "improved", win_share
    if bound is not None and worse_by(pm, cm, better) > bound:
        return "regressed", win_share
    return "unchanged", win_share


def fmt(v):
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e5:
        return "%.0f" % v
    if a >= 100:
        return "%.1f" % v
    if a >= 1:
        return "%.3f" % v
    return "%.4g" % v


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)
