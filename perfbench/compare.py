"""Compares two sets of benchmark runs of one workload.

Usage: python3 perfbench/compare.py BENCHMARK.json parent.jsonl change.jsonl

Each .jsonl file holds one result line per run (the last stdout line of
perfbench), the n-th line of both files from the same seed. Prints, per
end-to-end metric, each side's median and quartiles, the change of the
medians against the metric's bound, and on how many seeds the change was
better.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line)["metrics"] for line in f if line.strip()]


def main(bench_path, parent_path, change_path):
    with open(bench_path) as f:
        bench = json.load(f)
    parent, change = load(parent_path), load(change_path)
    if len(parent) != len(change) or len(parent) < 2:
        sys.exit("need the same number (at least 2) of runs on both sides")
    print(f"{'metric':18} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'delta':>8} {'bound':>6} {'wins':>6}  verdict")
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[name]["value"] for r in parent]
        b = [r[name]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        delta = (mb - ma) / ma
        worse = -delta if higher else delta
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        if worse > m["bound"]:
            verdict = "REGRESSION beyond bound"
        elif wins >= 0.9 * len(a) and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "gain"
        else:
            verdict = "no resolved change"
        print(f"{name:18} {ma:12.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
              f"{mb:12.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {delta:+8.1%} {m['bound']:6.2f} "
              f"{wins:3}/{len(a):<2}  {verdict}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
