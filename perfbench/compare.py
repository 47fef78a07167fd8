#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py BEFORE [AFTER] [--json OUT]

BEFORE and AFTER are result sets: a file holding the standard output of
one or more runs of `perfbench`, or a directory of such files. Each run
contributes its metadata line (workload, seed, named metrics) and its
result line (the gated metrics).

One set: per workload, the median, quartiles and spread (quartile
distance over median) of every metric, flagged `wide` when the spread
exceeds a third of the metric's bound and `unresolved` when it exceeds
the bound.

Two sets: one row per workload with a verdict per gated metric, then the
detail per metric. The rule, for a metric with bound b:
  unresolved  either side's spread exceeds b, unless every AFTER run is
              better than every BEFORE run (then `better`)
  regressed   AFTER's median is worse than BEFORE's by more than b
  improved    AFTER wins at least 9 of 10 runs paired in seed order, and
              the medians differ by more than BEFORE's quartile distance
  no-worse    otherwise
Metrics without a bound (named details, per-layer metrics) are reported
with their change only.

--json OUT writes the per-workload summary of BEFORE as JSON.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_bounds():
    try:
        with open(BENCHMARK) as f:
            bench = json.load(f)
    except OSError:
        return {}
    bounds = {}
    for m in bench.get("end_to_end", []):
        bounds[m["name"]] = (m.get("bound"), m["better"])
    for m in bench.get("per_layer", []):
        bounds[m["name"]] = (None, m["better"])
    return bounds


def parse_runs(path):
    """Yields (meta, result) for every run in a file or directory."""
    files = []
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    else:
        files = [path]
    for name in files:
        if not os.path.isfile(name):
            continue
        meta = None
        with open(name, errors="replace") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "workload" in obj and "details" in obj:
                    meta = obj
                elif "metrics" in obj and "correct" in obj and meta is not None:
                    yield meta, obj
                    meta = None


def collect(path):
    """{(workload, trace): {"seeds": [...], "failed": n, "metrics": {name: (unit, [values])}}}"""
    sets = {}
    for meta, result in sorted(parse_runs(path), key=lambda run: run[0]["seed"]):
        key = (meta["workload"], meta.get("trace", 0))
        entry = sets.setdefault(key, {"seeds": [], "failed": 0, "attempted": 0, "metrics": {},
                                      "host": {k: meta.get(k) for k in ("nproc", "threads", "rustc", "commit")}})
        entry["seeds"].append(meta["seed"])
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        named = {n: m for n, m in meta["details"].items() if n not in result["metrics"]}
        for source in (result["metrics"], named):
            for name, m in source.items():
                unit, values = entry["metrics"].setdefault(name, (m["unit"], []))
                values.append(m["value"])
    return sets


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(before, after, bound, better):
    sb, sa = summary(before), summary(after)
    if bound is None:
        return "info"
    all_better = all(is_better(a, b, better) for a in after for b in before)
    if sb["spread"] > bound or sa["spread"] > bound:
        return "better" if all_better else "unresolved"
    worse = (sa["median"] - sb["median"]) / abs(sb["median"]) if sb["median"] else 0.0
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if is_better(a, b, better))
    if pairs and wins >= 0.9 * len(pairs) and abs(sa["median"] - sb["median"]) > sb["q3"] - sb["q1"]:
        return "improved"
    return "no-worse"


def fmt(s):
    return "%.6g [%.6g, %.6g]" % (s["median"], s["q1"], s["q3"])


def report_one(sets, bounds):
    out = {}
    for (workload, trace), entry in sorted(sets.items()):
        ratio = entry["failed"] / max(entry["attempted"], 1)
        print("%s (trace %d): %d runs, seeds %s, fail_ratio %.3g" % (
            workload, trace, len(entry["seeds"]), entry["seeds"], ratio))
        rows = {}
        for name, (unit, values) in sorted(entry["metrics"].items()):
            s = summary(values)
            bound, _ = bounds.get(name, (None, None))
            flag = ""
            if bound is not None:
                flag = "unresolved" if s["spread"] > bound else "wide" if s["spread"] > bound / 3 else "steady"
                flag += " (bound %.3g)" % bound
            print("  %-28s %-44s %-6s spread %6.2f%% %s" % (name, fmt(s), unit, 100 * s["spread"], flag))
            rows[name] = dict(s, unit=unit)
        out["%s%s" % (workload, "/trace" if trace else "")] = {
            "seeds": entry["seeds"], "host": entry["host"], "fail_ratio": ratio, "metrics": rows}
    return out


def report_two(before, after, bounds):
    for key in sorted(set(before) | set(after)):
        workload, trace = key
        b, a = before.get(key), after.get(key)
        if not b or not a:
            print("%s: only in %s" % (workload, "BEFORE" if b else "AFTER"))
            continue
        gated = [n for n in sorted(b["metrics"]) if bounds.get(n, (None,))[0] is not None and n in a["metrics"]]
        cells = ["%s %s" % (n, verdict(b["metrics"][n][1], a["metrics"][n][1], *bounds[n])) for n in gated]
        print("%-8s| %s" % (workload + ("/trace" if trace else ""), " | ".join(cells) or "no gated metrics"))
    print()
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        print("%s%s:" % (key[0], "/trace" if key[1] else ""))
        for name in sorted(set(b["metrics"]) & set(a["metrics"])):
            unit, bv = b["metrics"][name]
            av = a["metrics"][name][1]
            sb, sa = summary(bv), summary(av)
            bound, better = bounds.get(name, (None, "lower"))
            change = (sa["median"] - sb["median"]) / abs(sb["median"]) if sb["median"] else 0.0
            print("  %-28s %-40s -> %-40s %-6s %+7.2f%%  bound %-5s %s" % (
                name, fmt(sb), fmt(sa), unit, 100 * change,
                "-" if bound is None else "%.3g" % bound, verdict(bv, av, bound, better)))


def main(argv):
    args, out = [], None
    it = iter(argv)
    for a in it:
        if a == "--json":
            out = next(it, None)
        else:
            args.append(a)
    if len(args) not in (1, 2) or (out is None and "--json" in argv):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    before = collect(args[0])
    if not before:
        print("no runs found in %s" % args[0], file=sys.stderr)
        return 1
    if len(args) == 1:
        result = report_one(before, bounds)
        if out:
            with open(out, "w") as f:
                json.dump(result, f, indent=1, sort_keys=True)
                f.write("\n")
    else:
        after = collect(args[1])
        if not after:
            print("no runs found in %s" % args[1], file=sys.stderr)
            return 1
        report_two(before, after, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
