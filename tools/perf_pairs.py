#!/usr/bin/env python3
"""Compare two source trees on the repository benchmark, in alternating pairs.

    python3 tools/perf_pairs.py <base tree> <new tree> --workload plan-wide
        [--seed 1] [--seconds 4] [--pairs 10] [--trace 0] [--build-root DIR]

Each tree's benchmark is built and run through that tree's own
perfbench/run.py, with its own CARGO_TARGET_DIR (<tree>/.bench_build, or
<build root>/base and <build root>/new), so the two builds never share
objects.  One discarded warm-up run per tree builds it.  Then each pair runs
both trees once, alternating which runs first.  From every run the script
parses the last JSON line (correct, failed, metrics) and the `digest` line,
then prints, per metric: each side's median and interquartile range, the
median change, in how many pairs the new tree was better, and a verdict:

    gain        the new tree wins at least 9 of 10 pairs (ties count for
                neither) and its median is better than the base median by
                more than the base side's interquartile range;
    worse       an end-to-end metric whose median moved the wrong way by
                more than the metric's `bound` (a fraction of the base
                median);
    unresolved  anything else.

The metric directions and bounds come from the base tree's BENCHMARK.json
(lower is better when a metric is not listed).  Exit status 1 when a run
fails or the two trees' digests differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("fleet-steady", "plan-wide", "fleet-chaos")


def run_once(tree, build_dir, args):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"perf_pairs: run failed in {tree} (exit {done.returncode})")
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines
                   if line.startswith("digest ")), None)
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": digest,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def metric_specs(tree):
    """Metric name -> (better, bound); the bound is None off end_to_end."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"],
                        m.get("bound") if group == "end_to_end" else None)
            for group in ("end_to_end", "per_layer") for m in spec.get(group, [])}


def verdict(a, b, higher, bound):
    """The verdict on one metric: base runs `a`, new runs `b`, paired."""
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    ma, mb = statistics.median(a), statistics.median(b)
    gained = mb - ma if higher else ma - mb  # > 0: the new side is better
    q1, q3 = quartiles(a)
    if wins * 10 >= 9 * len(a) and gained > q3 - q1:
        return "gain"
    if bound is not None and -gained > bound * abs(ma):
        return "worse"
    return "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root",
                        help="build under DIR/base and DIR/new instead of "
                             "each tree's .bench_build")
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("perf_pairs: --pairs must be >= 1")

    sides = []
    for label, tree in (("base", args.base), ("new", args.new)):
        tree = os.path.abspath(tree)
        build = (os.path.join(os.path.abspath(args.build_root), label)
                 if args.build_root else os.path.join(tree, ".bench_build"))
        sides.append({"label": label, "tree": tree, "build": build, "runs": []})

    for side in sides:  # build, and warm up; the result is discarded
        run_once(side["tree"], side["build"], args)

    for p in range(args.pairs):
        order = sides if p % 2 == 0 else sides[::-1]
        for side in order:
            side["runs"].append(run_once(side["tree"], side["build"], args))
        base_run, new_run = sides[0]["runs"][-1], sides[1]["runs"][-1]
        values = "  ".join(
            f"{k} {base_run['metrics'][k]:.6g}/{new_run['metrics'][k]:.6g}"
            for k in base_run["metrics"] if k in new_run["metrics"])
        print(f"pair {p + 1:2d} ({order[0]['label']} first)  {values}",
              flush=True)

    base, new = sides
    print(f"\n{args.workload} seed {args.seed} --seconds {args.seconds} "
          f"--trace {args.trace}: {args.pairs} pairs (base/new)")
    ok = True
    for side in sides:
        digests = sorted({r["digest"] for r in side["runs"]})
        bad = sum(1 for r in side["runs"] if not r["correct"] or r["failed"])
        print(f"{side['label']:>4}: {side['tree']}  digest {','.join(digests)}"
              f"  runs not correct or with failures: {bad}")
        ok = ok and bad == 0 and len(digests) == 1
    digests_match = ({r["digest"] for r in base["runs"]} ==
                     {r["digest"] for r in new["runs"]})
    print(f"digests {'match' if digests_match else 'DIFFER'}")
    ok = ok and digests_match

    specs = metric_specs(base["tree"])
    print(f"\n{'metric':<28} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>9} {'wins':>6}  verdict")
    for name in base["runs"][0]["metrics"]:
        if name not in new["runs"][0]["metrics"]:
            continue
        a = [r["metrics"][name] for r in base["runs"]]
        b = [r["metrics"][name] for r in new["runs"]]
        better, bound = specs.get(name, ("lower", None))
        higher = better == "higher"
        wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
        qa, qb = quartiles(a), quartiles(b)
        print(f"{name:<28} {f'{ma:.6g} [{qa[0]:.6g}, {qa[1]:.6g}]':>32} "
              f"{f'{mb:.6g} [{qb[0]:.6g}, {qb[1]:.6g}]':>32} "
              f"{change:>9} {f'{wins}/{args.pairs}':>6}  "
              f"{verdict(a, b, higher, bound)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
