"""End-to-end benchmark of the ``csf`` command line, with a traced per-module split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Each request is a fresh ``python -m csftrees.cli`` process, which is what a
user pays, cold caches included. Requests run one at a time (a closed loop
with one client); ``survey`` uses ``--jobs 2``, so no request uses more than
two processes. The workloads, their seeded inputs and the output checks are
in workloads.py. BENCHMARK.json bounds ``survey`` and ``compute`` only;
``compare`` and ``enumerate`` run the same way and are recorded in
perfbench/results/ without a bound, because on a noisy 2-vCPU host their
run-to-run spread has exceeded the largest bound allowed.

--trace 0 runs passes of the workload until S seconds have passed and
reports, as the median over passes:

  wall_s       wall seconds per request, from spawn to exit
  cpu_s        user+sys CPU seconds per request, including pool workers,
               from the request's os.wait4 rusage
  peak_rss_mb  peak RSS of the request's process tree (the largest single
               process), from the same rusage; the largest in the pass
  setup_s      spawn-to-exit time of ``python -c "import csftrees.cli"``,
               the median over fresh interpreters started before the first
               pass and after every pass (SETUP_PER_PASS each time)

wall_s, cpu_s and setup_s are given at a nominal host speed: the measured
median x REF_S / the mean time of reference_loop, a fixed pure-Python loop
that the benchmark times on each CPU in turn before the first request and
after every request (for REF_SHARE of the request's wall time). On the
2-vCPU VM this was written on, each vCPU switches every few seconds between
a fast and a slow state about 1.6 times slower, and the share of time spent
slow moved survey's measured median between 10-seed sets from 5.35 to
8.37 s; the mean loop time follows that share. The measured medians and the host speed
(REF_S / mean loop time) are printed on the ``measured`` line.

error_rate (requests that exit non-zero, time out or fail an output check,
over requests attempted) is printed with them; the JSON line carries it as
``failed`` and ``attempted``.

--trace 1 alternates untraced passes with the same passes under
trace_child.py, in ABBA order, for S seconds and at least OVERHEAD_PAIRS
pairs, and reports the per-layer metrics of the first traced pass (see
LAYER_METRICS). ``trace.wall_s`` is that pass's wall time and
``trace.overhead_s`` the median over pairs of traced minus untraced wall;
the per-pair differences are printed, and called unresolved when their sign
flips. A ``*_s`` metric is the self time of its spans (span time minus the
time its child spans cover) unless LAYER_METRICS says "inclusive". Each span
adds about ``trace.span_cost_us`` to its call, and the part spent outside
its own start and end falls to its parent: on ``compute`` the rank_desc
calls inside the 2^|E| sweep (one per subset) charge theirs to
``kernels.subset_s``. ``trace.spans`` counts the spans of the pass. For
``survey`` the traced pass runs at ``--jobs 1`` so that all spans stay in one
process, and an extra untraced ``--jobs 2`` request must give byte-identical
files.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trace_child import SPAN_COLUMNS
from workloads import WORKLOADS, CheckFailed, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 3
# Times are reported at a nominal host speed (see the module docstring).
# The mean, not the median, of the loop times: they cluster in two states,
# and the mean follows the share of time spent in the slow one.
REF_N, REF_BELL = 10, 115975  # the reference loop and its result, Bell(10)
REF_S = 0.1        # nominal seconds of one reference loop
REF_SHARE = 0.15   # reference-loop time per second of request wall time
REF_FIRST_S = 0.5  # reference-loop time before the first request
OVERHEAD_PAIRS = 2  # untraced/traced pass pairs, at least, in a traced run
RUN_DEADLINE_S = 160  # every run must end well within 180 s

# Per-layer metrics: name -> (unit, how it is computed). Span names are
# "<module>.<function>"; see trace_child.ENTRY_POINTS.
GENERATORS = ["generators.enumerate_free_trees", "generators._free_tree_edge_sets"]
CODES = ["graphs._code_from_adj", "graphs.canonical_code", "graphs.trees_isomorphic"]
FACTS = ["decomposition.leaf_decomposition", "decomposition.rho_data",
         "decomposition.chain_sequence", "decomposition.chain_holds", "theorems.tree_facts"]
PARTITIONS = ["partitions.partitions_desc", "partitions.num_partitions",
              "partitions.rank_desc", "partitions.unrank_desc", "partitions.mult_factorial",
              "partitions.falling_factorial"]
CHECKERS = ["theorems.thm_leaves_check", "theorems.thm_componentwise_check",
            "theorems.thm_sum_check", "theorems._leaves_verdict",
            "theorems._componentwise_verdict", "theorems._sum_verdict"]
AUDITS = ["theorems._spider_audit_rows", "theorems._star_audit_rows"]
STABLE = ["_kernels.stable_type_counts"]
SUBSET = ["_kernels.edge_subset_type_counts"]

LAYER_METRICS = {
    "generators.enumerate_s": ("s", ("self", GENERATORS)),
    "generators.trees": ("count", ("counter", "generators.trees")),
    "generators.codes": ("count", ("codes_in", GENERATORS)),
    "generators.yield_ratio": ("ratio", ("ratio", "generators.trees", "generators.codes")),
    "graphs.tree_build_s": ("s", ("self", ["graphs.Tree.__post_init__"])),
    "graphs.trees_built": ("count", ("calls", ["graphs.Tree.__post_init__"])),
    "graphs.code_s": ("s", ("self", CODES)),
    "graphs.parse_s": ("s", ("self", ["graphs.parse_edge_list"])),
    "decomposition.facts_s": ("s", ("self", FACTS)),
    "decomposition.leaf_decomposition_calls": ("count", ("calls", ["decomposition.leaf_decomposition"])),
    "decomposition.alpha_mis_s": ("s", ("self", ["decomposition.alpha_mis"])),
    "decomposition.alpha_mis_calls": ("count", ("calls", ["decomposition.alpha_mis"])),
    "kernels.stable_s": ("s", ("self", STABLE)),
    "kernels.stable_calls": ("count", ("calls", STABLE)),
    "kernels.stable_partitions": ("count", ("counter", "kernels.stable_partitions")),
    "kernels.stable_partitions_per_s": ("1/s", ("rate", "kernels.stable_partitions", STABLE)),
    "kernels.subset_s": ("s", ("self", SUBSET)),
    "kernels.subset_calls": ("count", ("calls", SUBSET)),
    "kernels.subsets": ("count", ("counter", "kernels.subsets")),
    "kernels.subsets_per_s": ("1/s", ("rate", "kernels.subsets", SUBSET)),
    "partitions.s": ("s", ("self", PARTITIONS)),
    "symfunc.decode_s": ("s", ("self", ["symfunc.csf_monomial", "symfunc.csf_powersum"])),
    "symfunc.to_monomial_s": ("s", ("self", ["symfunc.to_monomial"])),
    "symfunc.to_monomial_calls": ("count", ("calls", ["symfunc.to_monomial"])),
    "symfunc.csf_equal_calls": ("count", ("calls", ["symfunc.csf_equal"])),
    "symfunc.terms": ("count", ("counter", "symfunc.terms")),
    "theorems.payload_s": ("s", ("inclusive", ["theorems._survey_payload"])),
    "theorems.pair_loop_s": ("s", ("self", ["theorems.survey"])),
    "theorems.pairs": ("count", ("counter", "theorems.pairs")),
    "theorems.applicable": ("count", ("counter", "theorems.applicable")),
    "theorems.soundness_violations": ("count", ("counter", "theorems.soundness_violations")),
    "theorems.audit_s": ("s", ("inclusive", AUDITS)),
    "theorems.audit_rows": ("count", ("counter", "theorems.audit_rows")),
    "theorems.checker_s": ("s", ("self", CHECKERS)),
    "cli.self_s": ("s", ("self", ["cli.main"])),
    "cli.out_bytes": ("B", None),
    "trace.spans": ("count", None),
    "trace.span_cost_us": ("us", None),
    "trace.wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


@dataclass
class Outcome:
    """What one request cost and produced."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None
    output: bytes
    files: list[bytes]

    @property
    def out_bytes(self) -> int:
        return len(self.output) + sum(len(f) for f in self.files)


class Runner:
    """Spawns requests one at a time and checks each output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.checked: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, argv: list[str]) -> tuple:
        """Run argv to completion; returns wall, rusage, exit code, timeout
        flag, stdout and stderr. The whole process group is killed at the
        run's deadline."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)

            def kill() -> None:
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, rusage, code, timed_out.is_set(), out_path.read_bytes(), err_path.read_bytes()

    def request(self, req: Request, traced_prefix: str | None = None, request_id: int = 0) -> Outcome:
        for path in req.outputs:
            path.unlink(missing_ok=True)
        if traced_prefix is None:
            argv = [sys.executable, "-m", "csftrees.cli", *req.args]
        else:
            argv = [sys.executable, str(HERE / "trace_child.py"), "--spans", traced_prefix,
                    "--request-id", str(request_id), "--", *req.args]
        wall, rusage, code, timed_out, stdout, stderr = self.spawn(argv)
        files = [p.read_bytes() if p.exists() else b"" for p in req.outputs]
        error = None
        if timed_out:
            error = "timed out"
        elif code != 0:
            error = f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
        else:
            error = self.check(req, stdout, files)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{req.label}: {error}")
        return Outcome(req.label, wall, rusage.ru_utime + rusage.ru_stime,
                       rusage.ru_maxrss / 1024.0, error, stdout, files)

    def check(self, req: Request, stdout: bytes, files: list[bytes]) -> str | None:
        # Identical bytes under the same check get the same verdict.
        key = (req.check, *(hashlib.sha256(b).digest() for b in (stdout, *files)))
        if key not in self.checked:
            try:
                req.check(stdout, files)
                self.checked[key] = None
            except CheckFailed as exc:
                self.checked[key] = f"check failed: {exc}"
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.checked[key] = f"malformed output: {exc!r}"
        return self.checked[key]

    def same_bytes(self, outcome: Outcome, other: Outcome, what: str) -> None:
        """Fail ``outcome`` if its output bytes differ from ``other``'s."""
        if outcome.error is None and (outcome.output, outcome.files) != (other.output, other.files):
            outcome.error = f"output bytes differ from the {what} request"
            self.failed += 1
            self.errors.append(f"{outcome.label}: {outcome.error}")


def environment(runner: Runner) -> dict:
    """Versions, backend and machine facts recorded with every result."""
    probe = ("import json, sys, csftrees, csftrees._kernels as k; "
             "print(json.dumps({'python': sys.version.split()[0], 'csftrees': csftrees.__version__, "
             "'backend': k.BACKEND, 'package_file': csftrees.__file__}))")
    _, _, code, _, stdout, stderr = runner.spawn([sys.executable, "-c", probe])
    if code != 0:
        raise SystemExit(f"cannot import csftrees from {SRC}: {stderr.decode(errors='replace')}")
    info = json.loads(stdout)
    if Path(info.pop("package_file")).resolve().parent != (SRC / "csftrees").resolve():
        raise SystemExit(f"csftrees was not imported from {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info.update({
        "interpreter": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_start": os.getloadavg()[0],
    })
    return info


def import_time(runner: Runner) -> float:
    wall, _, code, _, _, stderr = runner.spawn([sys.executable, "-c", "import csftrees.cli"])
    if code != 0:
        raise SystemExit(f"import csftrees.cli failed: {stderr.decode(errors='replace')}")
    return wall


def reference_loop(n: int = REF_N) -> int:
    """Count the set partitions of n elements by block-size type, by
    recursion over restricted growth strings: fixed pure-Python work of the
    kind the stable-partition kernel does. Returns their number, Bell(n)."""
    counts: dict = {}
    sizes: list[int] = []

    def grow(i: int) -> None:
        if i == n:
            key = tuple(sorted(sizes))
            counts[key] = counts.get(key, 0) + 1
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            grow(i + 1)
            sizes[b] -= 1
        sizes.append(1)
        grow(i + 1)
        sizes.pop()

    grow(0)
    return sum(counts.values())


def reference_times(budget_s: float) -> list[float]:
    """Time the reference loop on each CPU in turn until budget_s seconds
    are spent, at least once per CPU. The requests spread over every CPU
    this process may use, so the loop is pinned to each of them in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    times: list[float] = []
    try:
        while len(times) < len(cpus) or sum(times) < budget_s:
            os.sched_setaffinity(0, {cpus[len(times) % len(cpus)]})
            t0 = time.perf_counter()
            if reference_loop() != REF_BELL:
                raise SystemExit("the reference loop miscounted")
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def timed_run(workload, runner: Runner, seconds: float) -> dict:
    # Set-up is sampled before the first pass and after every pass, and the
    # reference loop after every request for REF_SHARE of its wall time, so
    # that both cover the same stretch of time as the requests.
    setup = [import_time(runner) for _ in range(SETUP_PER_PASS)]
    ref = reference_times(REF_FIRST_S)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = time.monotonic()
    while time.monotonic() - start < seconds and time.monotonic() < runner.deadline:
        done = []
        for req in workload.next_pass():
            done.append(runner.request(req))
            ref += reference_times(REF_SHARE * done[-1].wall_s)
        samples["wall_s"].append(sum(o.wall_s for o in done) / len(done))
        samples["cpu_s"].append(sum(o.cpu_s for o in done) / len(done))
        samples["peak_rss_mb"].append(max(o.peak_rss_mb for o in done))
        setup += [import_time(runner) for _ in range(SETUP_PER_PASS)]
    samples["setup_s"] = setup
    speed = REF_S / statistics.fmean(ref)
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics, measured = {}, {"ref_s": statistics.fmean(ref), "host_speed": speed}
    for key, values in samples.items():
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        measured[key] = med
        scale = 1.0 if key == "peak_rss_mb" else speed
        what = "imports" if key == "setup_s" else "passes"
        print(f"{workload.name} {key} {med * scale:.4f} {units[key]} "
              f"(measured: median of {len(values)} {what} {med:.4f}, q1 {q1:.4f}, q3 {q3:.4f})")
        metrics[key] = {"value": med * scale, "unit": units[key]}
    print(f"{workload.name} host_speed {speed:.4f} (reference loop mean "
          f"{measured['ref_s'] * 1e3:.2f} ms over {len(ref)} samples, nominal {REF_S * 1e3:.0f} ms)")
    print("measured " + json.dumps(measured))
    return metrics


def load_spans(prefix: str) -> tuple[dict, dict]:
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    cols = {}
    with open(prefix + ".bin", "rb") as fh:
        for col, code in SPAN_COLUMNS:
            arr = array(code)
            arr.fromfile(fh, meta["spans"])
            cols[col] = np.frombuffer(arr, dtype=np.int32 if code == "i" else np.float64)
    return meta, cols


def span_totals(meta: dict, cols: dict) -> dict:
    """Per span name: calls, inclusive and self seconds; and the number of
    spans per (parent name, child name) pair."""
    names = meta["names"]
    k = len(names)
    ids, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    calls = np.bincount(ids, minlength=k)
    inclusive = np.bincount(ids, weights=dur, minlength=k)
    self_time = np.bincount(ids, weights=dur - child_time, minlength=k)
    edges = np.bincount(ids[parent[has_parent]] * k + ids[has_parent], minlength=k * k)
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "inclusive": {name: float(inclusive[i]) for i, name in enumerate(names)},
        "self": {name: float(self_time[i]) for i, name in enumerate(names)},
        "edges": {(names[e // k], names[e % k]): int(c) for e, c in enumerate(edges) if c},
    }


def layer_metrics(totals: list[dict], counters: dict) -> dict:
    def total(field: str, spans: list[str]) -> float:
        return sum(t[field].get(s, 0) for t in totals for s in spans)

    out = {}
    for name, (unit, rule) in LAYER_METRICS.items():
        if rule is None:
            continue
        kind = rule[0]
        if kind in ("self", "inclusive", "calls"):
            value = total(kind, rule[1])
        elif kind == "counter":
            value = counters.get(rule[1], 0)
        elif kind == "codes_in":
            value = sum(t["edges"].get((p, "graphs._code_from_adj"), 0) for t in totals for p in rule[1])
        elif kind == "ratio":
            den = out[rule[2]]["value"]
            value = out[rule[1]]["value"] / den if den else 0
        else:  # rate: a counter over the spans' inclusive time
            secs = total("inclusive", rule[2])
            value = counters.get(rule[1], 0) / secs if secs else 0
        out[name] = {"value": value, "unit": unit}
    return out


def traced_run(workload, runner: Runner, seconds: float) -> dict:
    # Untraced and traced passes of the same requests alternate (ABBA order)
    # until S seconds have passed, at least OVERHEAD_PAIRS times, so that
    # trace.overhead_s is a median of paired differences. The layer metrics
    # come from the first traced pass alone, so that its counts are those of
    # one pass.
    reqs = workload.next_pass(traced=True)
    diffs, first_traced = [], None
    start = time.monotonic()
    while len(diffs) < OVERHEAD_PAIRS or (time.monotonic() - start < seconds
                                          and time.monotonic() < runner.deadline):
        k = len(diffs)
        prefixes = [str(runner.workdir / f"spans{k}.{i}") for i in range(len(reqs))]
        if k % 2 == 0:
            plain = [runner.request(req) for req in reqs]
        traced = [runner.request(req, p, i) for i, (req, p) in enumerate(zip(reqs, prefixes))]
        if k % 2 == 1:
            plain = [runner.request(req) for req in reqs]
        for outcome, other in zip(traced, plain):
            runner.same_bytes(outcome, other, "untraced")
        diffs.append(sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain))
        if first_traced is None:
            first_traced, first_prefixes = traced, prefixes
    for req, other in zip(workload.reference_pass() or [], first_traced):
        runner.same_bytes(runner.request(req), other, "traced")

    totals, counters, spans, cost = [], {}, 0, 0.0
    for prefix in first_prefixes:
        if not os.path.exists(prefix + ".json"):
            continue
        meta, cols = load_spans(prefix)
        totals.append(span_totals(meta, cols))
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        spans += meta["spans"]
        cost = max(cost, meta["span_cost_s"])
    metrics = layer_metrics(totals, counters)
    metrics["cli.out_bytes"] = {"value": sum(o.out_bytes for o in first_traced), "unit": "B"}
    metrics["trace.spans"] = {"value": spans, "unit": "count"}
    metrics["trace.span_cost_us"] = {"value": cost * 1e6, "unit": "us"}
    metrics["trace.wall_s"] = {"value": sum(o.wall_s for o in first_traced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(diffs), "unit": "s"}
    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    signs = {d > 0 for d in diffs}
    print(f"{workload.name} trace.overhead_s per pair: " + " ".join(f"{d:+.3f}" for d in diffs)
          + ("" if len(signs) == 1 else "  (unresolved: the sign flips between pairs)"))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to run passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "csftrees" / "cli.py").is_file():
        print(f"error: no csftrees package under {SRC}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
        env = environment(runner)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = traced_run(workload, runner, args.seconds)
        else:
            metrics = timed_run(workload, runner, args.seconds)
        print("env " + json.dumps(env))
        print("input " + json.dumps({"workload": args.workload, "seed": args.seed,
                                     "digest": workload.digest.hexdigest()[:16]}))
        for err in runner.errors:
            print(f"error: {err}")
        rate = runner.failed / runner.attempted
        print(f"{args.workload} error_rate {rate:.4f} ratio "
              f"({runner.failed} failed of {runner.attempted} attempted)")
        print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
