#!/usr/bin/env python3
"""Compare benchmark results against the bounds in BENCHMARK.json.

    python3 zi_bench/compare.py RUNS
    python3 zi_bench/compare.py BASE NEW

RUNS, BASE and NEW are result files written by `run.py --out` (one JSON
object per line) or directories of such *.jsonl files. Only untraced runs
count; each (end-to-end metric, workload) pair is reported on its own row.

With one side, prints each pair's median and quartiles and its spread (the
interquartile range as a share of the median) against the metric's bound.

With two sides, classifies each pair (a change is measured against its
parent, BASE):
  improved    NEW wins at least 9 in 10 seed-matched pairs of runs and the
              medians differ by more than BASE's interquartile range;
  regressed   NEW's median is worse than BASE's by more than the bound, and
              either the spread is within the bound or every NEW run is
              worse than every BASE run;
  unresolved  the spread on either side is wider than the bound and neither
              side's runs all beat the other's;
  unchanged   otherwise.
The share of failed operations is compared per workload as well; more
failures on NEW is a regression. Exits 1 when anything regressed.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            runs += [json.loads(line) for line in f if line.strip()]
    return [r for r in runs if not r["trace"]]


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def by_pair(runs, metrics):
    """{(workload, metric): {seed: value}} for the end-to-end metrics."""
    pairs = {}
    for r in runs:
        for m in metrics:
            v = r["result"]["metrics"].get(m["name"])
            if v is not None:
                pairs.setdefault((r["workload"], m["name"]), {})[r["seed"]] = v["value"]
    return pairs


def failed_share(runs, workload):
    att = sum(r["result"]["attempted"] for r in runs if r["workload"] == workload)
    bad = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
    return bad / att if att else 0.0


def classify(base, new, metric):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b, n = stats(list(base.values())), stats(list(new.values()))
    worse_by = (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    if not lower:
        worse_by = -worse_by
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    all_better = all(better(x, y) for x in new.values() for y in base.values())
    all_worse = all(better(y, x) for x in new.values() for y in base.values())
    seeds = sorted(set(base) & set(new))
    wins = sum(better(new[s], base[s]) for s in seeds)
    spread = max(b["spread"], n["spread"])
    if (seeds and wins >= 0.9 * len(seeds) and worse_by < 0
            and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]):
        verdict = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        verdict = "regressed"
    elif spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return b, n, worse_by, verdict


def fmt(s):
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = [load_runs(p) for p in argv[1:]]
    pairs = [by_pair(runs, metrics) for runs in sides]
    workloads = sorted({w for w, _ in pairs[0]})

    if len(sides) == 1:
        worst = 0.0
        for w in workloads:
            for m in metrics:
                s = stats(list(pairs[0][(w, m["name"])].values()))
                share = s["spread"] / m["bound"]
                if m["name"] != "setup_s":
                    worst = max(worst, share)
                print(f"{w:17s} {m['name']:15s} {fmt(s):44s} spread {s['spread']:.3f}"
                      f" = {share:.2f} x bound {m['bound']}")
            print(f"{w:17s} failed share {failed_share(sides[0], w):.3g}")
        print(f"widest spread (setup_s aside): {worst:.2f} x its bound")
        return 0

    regressed = False
    for w in workloads:
        for m in metrics:
            key = (w, m["name"])
            if key not in pairs[1]:
                print(f"{w:17s} {m['name']:15s} missing on NEW")
                regressed = True
                continue
            b, n, worse_by, verdict = classify(pairs[0][key], pairs[1][key], m)
            regressed |= verdict == "regressed"
            print(f"{w:17s} {m['name']:15s} BASE {fmt(b)}  NEW {fmt(n)}  "
                  f"worse by {100 * worse_by:+.1f}% (bound {100 * m['bound']:.0f}%)"
                  f"  {verdict}")
        fb, fn = failed_share(sides[0], w), failed_share(sides[1], w)
        if fn > fb:
            regressed = True
        print(f"{w:17s} failed share BASE {fb:.3g} NEW {fn:.3g}"
              f"{'  regressed' if fn > fb else ''}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
