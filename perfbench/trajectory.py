"""Run the benchmark over several seeds and add the set to a trajectory file.

    python3 perfbench/trajectory.py --seeds 1-10 [--workloads survey,compute]
                                    [--out perfbench/results/COMMIT.json]

For every seed it runs ``run.py --trace 0`` once per workload, alternating
workloads so that drift in machine load spreads over all of them, then one
``run.py --trace 1`` per workload on the first seed. Every run lasts
BENCHMARK.json's run_seconds. For each end-to-end metric it prints and
records the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median, and flags spreads above a third of the
metric's bound; and the same for the measured (unscaled) medians and the
host speed that run.py prints on its ``measured`` line.

--out appends the set to the file's ``sets``, so that one file holds every
set run on one commit, and recomputes its ``agreement``: per workload and
metric, the median of each set and the largest ratio between two of them
minus one, against the metric's bound. Workloads that BENCHMARK.json does not
list have no bound and are marked unbounded. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = elapsed
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("env", "input", "measured"):
            record[tag] = json.loads(rest)
        elif tag == "error:":
            record.setdefault("errors", []).append(rest)
    return record


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def agreement(sets: list[dict], bounds: dict, bounded: set) -> dict:
    """Per workload and metric: each set's median and how far apart they are."""
    out: dict = {}
    for s in sets:
        for w, entry in s["workloads"].items():
            for metric, summary in entry["end_to_end"].items():
                out.setdefault(w, {}).setdefault(metric, {"medians": []})["medians"].append(
                    summary["median"])
    for w, metrics in out.items():
        for metric, a in metrics.items():
            a["largest_change"] = max(a["medians"]) / min(a["medians"]) - 1
            a["bound"] = bounds[metric] if w in bounded else None
            a["within_bound"] = None if a["bound"] is None else a["largest_change"] <= a["bound"]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=",".join(listed))
    ap.add_argument("--out", help="trajectory file to add this set to")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            record = run_once(w, seed, seconds, 0)
            runs[w].append(record)
            shown = " ".join(f"{k}={v['value']:.4f}" for k, v in record["metrics"].items())
            print(f"seed {seed} {w}: correct={record['correct']} {shown} "
                  f"({record['elapsed_s']:.1f} s)", flush=True)

    this = {"started": started, "seeds": seeds, "run_seconds": seconds,
            "env": runs[workloads[0]][0]["env"], "workloads": {}}
    steady = True
    for w in workloads:
        entry = {
            "bounded": w in listed,
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "inputs": [r["input"]["digest"] for r in runs[w]],
            "loadavg_start": [r["env"]["loadavg_start"] for r in runs[w]],
            "run_elapsed_s": [r["elapsed_s"] for r in runs[w]],
            "end_to_end": {},
        }
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in runs[w]])
            s["unit"] = runs[w][0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  <-- above bound/3"
            steady &= not flag or w not in listed
            print(f"{w:10s} {metric:12s} median {s['median']:.4f} {s['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f} "
                  f"(bound {bounds[metric]}){flag}")
        entry["measured"] = {}
        for key in runs[w][0]["measured"]:
            s = summarise([r["measured"][key] for r in runs[w]])
            entry["measured"][key] = s
            print(f"{w:10s} measured {key:10s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}")
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        print(f"{w:10s} error_rate {entry['error_rate']:.4f} "
              f"({entry['failed']} failed of {entry['attempted']} attempted)")
        record = run_once(w, seeds[0], seconds, 1)
        entry["traced"] = {"seed": seeds[0], "correct": record["correct"],
                           "elapsed_s": record["elapsed_s"], "metrics": record["metrics"]}
        print(f"{w:10s} traced: correct={record['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in record["metrics"].items()), flush=True)
        this["workloads"][w] = entry
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"notes": [], "sets": []}
        doc["sets"].append(this)
        doc["agreement"] = agreement(doc["sets"], bounds, set(listed))
        for w, metrics in doc["agreement"].items():
            for metric, a in metrics.items():
                verdict = ("unbounded" if a["bound"] is None
                           else "within bound" if a["within_bound"] else "OUTSIDE bound")
                print(f"{w:10s} {metric:12s} set medians "
                      + " ".join(f"{m:.4f}" for m in a["medians"])
                      + f"  largest change {a['largest_change']:.3f} ({verdict})")
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
