#!/usr/bin/env python3
"""Compare a perfbench run against the committed perf trajectory.

The trajectory is one file per workload, bench/trajectory/BENCH_<workload>.json
(schema fsx-trajectory-v1). Each entry records one commit's perfbench
result lines, keyed by seed and trace mode, with the host that made them:

  {"schema": "fsx-trajectory-v1", "workload": "daemon-mirror",
   "entries": [{"commit": "<sha>", "host": "<cpu, cores, kernel>",
                "note": "...", "byte_change": null | "<why bytes moved>",
                "runs": [{"seed": 1, "trace": 0, "seconds": 30,
                          "correct": true, "attempted": 0, "failed": 0,
                          "metrics": {"wire_bytes": {"value": ..,
                                                     "unit": ..}, ...}}]}]}

Usage, from the repository root:

  python3 perfbench/run.py --workload daemon-mirror --seed 1 \\
      --seconds 30 --trace 0 > run.out
  python3 tools/bench_diff.py --workload daemon-mirror --seed 1 \\
      --trace 0 run.out [--bytes-only]

RESULT is a file whose last line is perfbench's JSON result ("-" reads
stdin). The run is compared with the last trajectory entry that has a
run at the same seed and trace mode (the median of that entry's runs
there):

  - the run must be correct, with no failed syncs;
  - wire_bytes (untraced runs) and net.rounds (traced runs) must equal
    the entry's exactly;
  - cpu_ms_per_sync and peak_rss_mb must not be worse than the entry's
    by more than their BENCHMARK.json bounds. --bytes-only reports them
    without gating: CPU and memory only compare on the host that made
    the entry, so CI, on other hardware, gates bytes and rounds only;
  - wall-time metrics (sync_p50_ms, sync_p95_ms, syncs_per_s,
    sync_mb_s) are reported and never gated.

  python3 tools/bench_diff.py --check-trajectory

checks the committed files themselves: every entry's wire_bytes and
net.rounds must equal the previous entry's at each seed and trace mode
they share, unless the later entry declares a byte change
("byte_change": the reason). A commit that moves bytes therefore has to
say so in the entry it appends.

  python3 tools/bench_diff.py --workload W --seed N --trace T RESULT \\
      --append --commit SHA [--seconds S] [--note TEXT]
      [--byte-change REASON]

adds the run to the trajectory: to the last entry when it has the same
commit (replacing nothing; several runs at one seed and trace are
summarised by their median), else to a new entry with this host.

Standard library only. Exit status: 0 when every gate holds, 1 when one
fails, 2 on bad input.
"""

import argparse
import json
import os
import platform
import statistics
import sys

SCHEMA = "fsx-trajectory-v1"
GATED_EXACT = {0: ("wire_bytes",), 1: ("net.rounds",)}
GATED_BOUND = ("cpu_ms_per_sync", "peak_rss_mb")
REPORTED = ("sync_p50_ms", "sync_p95_ms", "syncs_per_s", "sync_mb_s")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def trajectory_path(directory, workload):
    return os.path.join(directory, "BENCH_%s.json" % workload)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_trajectory(directory, workload):
    path = trajectory_path(directory, workload)
    if not os.path.exists(path):
        return {"schema": SCHEMA, "workload": workload, "entries": []}
    doc = load_json(path)
    if doc.get("schema") != SCHEMA or doc.get("workload") != workload:
        raise ValueError("%s: not a %s file for %s" % (path, SCHEMA, workload))
    return doc


def load_result(path):
    """The perfbench JSON result: the last non-empty line of `path`."""
    text = sys.stdin.read() if path == "-" else open(path).read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: no perfbench result line" % path)
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("%s: result line lacks %r" % (path, key))
    return result


def bounds():
    """BENCHMARK.json's end-to-end metrics: name -> (better, bound)."""
    doc = load_json(os.path.join(REPO, "BENCHMARK.json"))
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def host_description():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%s, %d cores, %s %s" % (model, os.cpu_count() or 0,
                                     platform.system(), platform.release())


def runs_at(entry, seed, trace):
    return [r for r in entry["runs"]
            if r["seed"] == seed and r["trace"] == trace]


def metric(runs, name):
    """Median of `name` over `runs`, or None when no run carries it."""
    values = [r["metrics"][name]["value"] for r in runs
              if name in r["metrics"]]
    return statistics.median(values) if values else None


def baseline(doc, seed, trace):
    """The last entry with runs at (seed, trace), and those runs."""
    for entry in reversed(doc["entries"]):
        runs = runs_at(entry, seed, trace)
        if runs:
            return entry, runs
    return None, []


def relative_worse(better, old, new):
    """How much worse `new` is than `old` (negative: better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def diff(args):
    doc = load_trajectory(args.trajectory, args.workload)
    result = load_result(args.result)
    entry, runs = baseline(doc, args.seed, args.trace)
    if entry is None:
        print("bench_diff: no trajectory run for %s seed %d trace %d" %
              (args.workload, args.seed, args.trace), file=sys.stderr)
        return 2
    print("bench_diff: %s seed %d trace %d vs %s (%s)" %
          (args.workload, args.seed, args.trace, entry["commit"][:12],
           entry["host"]))
    ok = True
    if not result["correct"] or result["failed"] != 0:
        print("  FAIL run not correct: %d of %d syncs failed" %
              (result["failed"], result["attempted"]))
        ok = False
    new = {k: v["value"] for k, v in result["metrics"].items()}
    for name in GATED_EXACT[args.trace]:
        old = metric(runs, name)
        if old is None:
            continue
        same = new.get(name) == old
        print("  %-4s %-16s %14g -> %-14s (must not move)" %
              ("ok" if same else "FAIL", name, old, "%g" % new[name]
               if name in new else "missing"))
        ok = ok and same
    limits = bounds()
    for name in GATED_BOUND:
        old = metric(runs, name)
        if old is None or name not in new:
            continue
        better, bound = limits[name]
        worse = relative_worse(better, old, new[name])
        held = worse <= bound
        tag = "info" if args.bytes_only else ("ok" if held else "FAIL")
        print("  %-4s %-16s %14.4g -> %-14.4g (%+.1f%%, bound %.0f%%)" %
              (tag, name, old, new[name], 100 * (new[name] - old) / old
               if old else 0.0, 100 * bound))
        if not args.bytes_only:
            ok = ok and held
    for name in REPORTED:
        old = metric(runs, name)
        if old is None or name not in new:
            continue
        print("  info %-16s %14.4g -> %-14.4g (%+.1f%%, not gated)" %
              (name, old, new[name],
               100 * (new[name] - old) / old if old else 0.0))
    print("bench_diff: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def check_trajectory(args):
    ok = True
    names = sorted(f for f in os.listdir(args.trajectory)
                   if f.startswith("BENCH_") and f.endswith(".json"))
    for name in names:
        workload = name[len("BENCH_"):-len(".json")]
        doc = load_trajectory(args.trajectory, workload)
        for prev, cur in zip(doc["entries"], doc["entries"][1:]):
            for run in cur["runs"]:
                if not run["correct"] or run["failed"] != 0:
                    print("%s: %s seed %d trace %d: a run that failed" %
                          (name, cur["commit"][:12], run["seed"],
                           run["trace"]))
                    ok = False
            keys = sorted({(r["seed"], r["trace"]) for r in cur["runs"]})
            for seed, trace in keys:
                before = runs_at(prev, seed, trace)
                for metric_name in GATED_EXACT[trace]:
                    old = metric(before, metric_name)
                    now = metric(runs_at(cur, seed, trace), metric_name)
                    if old is None or now is None or old == now:
                        continue
                    if cur.get("byte_change"):
                        print("%s: %s seed %d: %s %g -> %g, declared: %s" %
                              (name, cur["commit"][:12], seed, metric_name,
                               old, now, cur["byte_change"]))
                        continue
                    print("%s: %s seed %d trace %d: %s %g -> %g with no "
                          "declared byte change" %
                          (name, cur["commit"][:12], seed, trace,
                           metric_name, old, now))
                    ok = False
    print("bench_diff: trajectory %s (%d files)" %
          ("ok" if ok else "FAILED", len(names)))
    return 0 if ok else 1


def append(args):
    doc = load_trajectory(args.trajectory, args.workload)
    result = load_result(args.result)
    run = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
           "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": result["metrics"]}
    entries = doc["entries"]
    if not entries or entries[-1]["commit"] != args.commit:
        entries.append({"commit": args.commit, "host": host_description(),
                        "note": args.note, "byte_change": args.byte_change,
                        "runs": []})
    entries[-1]["runs"].append(run)
    os.makedirs(args.trajectory, exist_ok=True)
    with open(trajectory_path(args.trajectory, args.workload), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", nargs="?",
                        help="perfbench output; its last line is the result")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--trajectory",
                        default=os.path.join(REPO, "bench", "trajectory"))
    parser.add_argument("--bytes-only", action="store_true",
                        help="gate bytes and rounds; report CPU and RSS")
    parser.add_argument("--check-trajectory", action="store_true")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--commit")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--note", default="")
    parser.add_argument("--byte-change", default=None)
    args = parser.parse_args()
    try:
        if args.check_trajectory:
            return check_trajectory(args)
        if (args.result is None or args.workload is None or args.seed is None
                or args.trace is None):
            parser.error("RESULT, --workload, --seed and --trace are required")
        if args.append:
            if not args.commit:
                parser.error("--append needs --commit")
            return append(args)
        return diff(args)
    except (OSError, ValueError, KeyError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
