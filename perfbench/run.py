"""Closed-loop benchmark of the blockatlas CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client starts ``blockatlas``
invocations as fresh interpreters, each only after the previous one has
exited, round after round (see workloads.py) until S seconds have passed.
Every report is checked independently (checks.py).

--trace 0 prints the end-to-end metrics: ops_per_s, latency_p50_s,
setup_s and peak_rss_mb.  --trace 1 runs round 0 plus two
layer probes once untraced and once through tracer.py, and prints the
per-layer metrics and trace_overhead_ratio.  Every metric is printed by
name with its unit, followed by the sha256 of every round-0 report; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

# The console script's body: what a user's `blockatlas ARGS` runs.
ENTRY = "import sys; from blockatlas.cli import main; sys.exit(main())"
SETUP_ARGV = ["unipotent", "--type", "A", "--rank", "1"]
SETUP_RUNS = 9
# Two small invocations traced with every workload, so every layer is
# entered in each traced run.
LAYER_PROBES = (["fusion", "--type", "B", "--rank", "2", "--q", "3"],
                ["bijection", "--datum", "catalog:sl2_split", "--p", "2"])
DEADLINE_S = 170.0
# The host's speed drifts by up to 1.7x within seconds (other tenants of a
# shared machine), moving every program on it alike.  Timed invocations are
# therefore interleaved with the fixed program reference.py on the same CPU:
# after every SLICE_S of timed running time the benchmark runs it once,
# between two invocations or, if one is running, after stopping it with
# SIGSTOP (and SIGCONT after).  An invocation's time is its running time,
# scaled by REFERENCE_NOMINAL_S over the mean time of the reference runs
# from the last one before it to the first one after it: seconds on a host
# that runs reference.py in REFERENCE_NOMINAL_S (about its median on a
# 2-vCPU Intel Xeon host under Python 3.11).  The CLI keeps no wall-clock
# limits, so pausing it changes nothing it computes.
REFERENCE = os.path.join(HERE, "reference.py")
REFERENCE_NOMINAL_S = 0.2
SLICE_S = 0.5


class Run:
    """Child-process bookkeeping for one benchmark run."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.stderr_path = os.path.join(workdir, "stderr.log")
        self.deadline = time.monotonic() + DEADLINE_S
        self.reference = []   # wall times of reference.py runs, in order
        # Timed running time since the last reference run.
        self._unreferenced = SLICE_S

    def _spawn(self, cmd: list):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError
        with open(self.stderr_path, "ab") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        out = []
        reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
        reader.start()
        return proc, timer, reader, out

    @staticmethod
    def _finish(proc, timer, reader, out, status, usage, wall) -> dict:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "rss_kb": usage.ru_maxrss,
                "rc": proc.returncode, "stdout": out[0] if out else b""}

    def run_reference(self) -> None:
        start = time.perf_counter()
        proc, timer, reader, out = self._spawn([sys.executable, REFERENCE])
        _, status, usage = os.wait4(proc.pid, 0)
        res = self._finish(proc, timer, reader, out, status, usage,
                           time.perf_counter() - start)
        if res["rc"] != 0:
            raise SystemExit("reference.py failed")
        self.reference.append(res["wall"])
        self._unreferenced = 0.0

    def call(self, argv: list, trace_out: str | None = None,
             timed: bool = False) -> dict:
        """Run one CLI invocation to completion: wall time, peak RSS from
        ``os.wait4`` rusage, exit code and stdout.  A timed call shares the
        CPU with reference runs (see SLICE_S); its wall time is then the
        child's running time, and ``refs`` gives the reference runs that
        frame it (see scaled)."""
        if trace_out is None:
            cmd = [sys.executable, "-c", ENTRY] + argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_out,
                   "--"] + argv
        if timed and self._unreferenced >= SLICE_S:
            self.run_reference()
        first = len(self.reference)
        start = time.perf_counter()
        try:
            proc, timer, reader, out = self._spawn(cmd)
        except TimeoutError:
            return {"wall": 0.0, "rss_kb": 0, "rc": -1, "stdout": b"",
                    "refs": (first, first)}
        if not timed:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        else:
            wall = 0.0
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    budget = max(0.0, SLICE_S - self._unreferenced)
                    if select.select([pidfd], [], [], budget)[0]:
                        _, status, usage = os.wait4(proc.pid, 0)
                    else:
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    ran = time.perf_counter() - start
                    wall += ran
                    self._unreferenced += ran
                    if not os.WIFSTOPPED(status):
                        break
                    try:
                        self.run_reference()
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    start = time.perf_counter()
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                timer.cancel()
                reader.join()
                raise
            finally:
                os.close(pidfd)
        res = self._finish(proc, timer, reader, out, status, usage, wall)
        res["refs"] = (first, len(self.reference))
        return res

    def scaled(self, results: list) -> list:
        """Each timed result's wall time at nominal host speed: scaled by
        the mean time of the reference runs from the last before it to the
        first after it."""
        self.run_reference()
        out = []
        for res in results:
            first, end = res["refs"]
            refs = self.reference[max(first - 1, 0):end + 1]
            out.append(res["wall"] * REFERENCE_NOMINAL_S / statistics.mean(refs))
        return out


def _setup_probe(run: Run, timed: bool = True) -> dict:
    res = run.call(SETUP_ARGV, timed=timed)
    ok, problems = check_output(SETUP_ARGV, {"command": "unipotent"},
                                res["rc"], res["stdout"])
    if not ok:
        raise SystemExit(f"set-up probe failed: {problems}")
    return res


def measure_setup(run: Run) -> float:
    """Median time of a fresh interpreter running a trivial call, at
    nominal host speed.  A first, untimed call lets the interpreter write
    its bytecode cache."""
    _setup_probe(run, timed=False)
    return statistics.median(run.scaled(
        [_setup_probe(run) for _ in range(SETUP_RUNS)]))


def _check(results: list) -> tuple:
    """(attempted, failed, problems) over (invocation, result) pairs."""
    attempted = failed = 0
    problems = []
    for inv, res in results:
        ok, found = check_output(inv.argv, inv.expect, res["rc"], res["stdout"])
        attempted += inv.ops
        failed += inv.ops - ok
        problems += [f"{' '.join(inv.argv)}: {p}" for p in found[:3]]
    return attempted, failed, problems


def _digests(results: list) -> list:
    return [(hashlib.sha256(res["stdout"]).hexdigest(), " ".join(inv.argv))
            for inv, res in results]


def timed_run(run: Run, workload: Workload, seconds: float) -> dict:
    setup = measure_setup(run)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append([(inv, run.call(inv.argv, timed=True))
                       for inv in workload.round(len(rounds))])
    results = [pair for r in rounds for pair in r]
    attempted, failed, problems = _check(results)
    scaled = iter(run.scaled([res for _, res in results]))
    # A round mixes invocation kinds of different cost (the three lattice
    # commands, the two fusion family groups), so the median is taken per
    # round and its median over rounds is reported; the number of rounds a
    # run fits then does not move it.
    per_round = [[next(scaled) for _ in r] for r in rounds]
    times = [t for r in per_round for t in r]
    raw = sum(res["wall"] for _, res in results)
    metrics = {
        "ops_per_s": ((attempted - failed) / sum(times), "op/s"),
        "latency_p50_s": (statistics.median(
            statistics.median(w) for w in per_round), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(res["rss_kb"] for _, res in results) / 1024, "MB"),
    }
    notes = [f"rounds {len(rounds)} of {len(per_round[0])} invocations; "
             f"latency_p50_s is the median over rounds of each round's "
             f"median; setup samples {SETUP_RUNS}",
             f"failed_ratio {failed / attempted:.6f} fraction",
             f"reference runs {len(run.reference)}, median "
             f"{statistics.median(run.reference)!r} s; running time "
             f"{raw!r} s measured, {sum(times)!r} s at nominal speed"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes, "digests": _digests(rounds[0])}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list) -> dict:
    """Sum per-invocation traces into the per-layer metric set."""
    layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    counts, distinct, caches = {}, {}, {}
    for tr in traces:
        for layer, v in tr["layers"].items():
            layers[layer][0] += v["calls"]
            layers[layer][1] += v["busy_s"]
            layers[layer][2] += v["wall_s"]
        for src, dst in ((tr["counts"], counts), (tr["distinct"], distinct)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
        for name, v in tr["caches"].items():
            hits, misses = caches.get(name, (0, 0))
            caches[name] = (hits + v["hits"], misses + v["misses"])
    out = {}
    for layer, (calls, busy, wall) in layers.items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.wait_s"] = (wall - busy, "s")

    def c(name):
        return counts.get(name, 0)

    def hit_ratio(*names):
        hits = sum(caches.get(n, (0, 0))[0] for n in names)
        total = hits + sum(caches.get(n, (0, 0))[1] for n in names)
        return _ratio(hits, total)

    for name in ("partitions.partitions_built", "symbols.symbols_enumerated",
                 "symbols.symbols_constructed"):
        out[name] = (c(name), "count")
    out["symbols.core_cache_hit_ratio"] = (
        hit_ratio("hook_core", "cohook_core"), "ratio")
    out["unipotent.labels_enumerated"] = (c("unipotent.labels_enumerated"), "count")
    out["unipotent.label_enum_reuse_ratio"] = (_ratio(
        distinct.get("unipotent.label_types", 0),
        c("unipotent.enumerate_labels_calls")), "ratio")
    out["unipotent.series_built"] = (c("unipotent.series_built"), "count")
    out["unipotent.series_reuse_ratio"] = (_ratio(
        distinct.get("unipotent.series_keys", 0),
        c("unipotent.series_built")), "ratio")
    for name in ("unipotent.validations", "fusion.merge_events",
                 "fusion.validations", "arith.witness_searches"):
        out[name] = (c(name), "count")
    out["arith.witness_cache_hit_ratio"] = (hit_ratio("primitive_prime"), "ratio")
    for name in ("arith.is_prime_calls", "abelian.snf_calls",
                 "abelian.matrices_built", "abelian.unimodular_inverses",
                 "abelian.det_calls", "rootdata.catalog_builds",
                 "rootdata.datum_validations", "langlands.checks"):
        out[name] = (c(name), "count")
    out["cli.json_s"] = (c("cli.json_s"), "s")
    return out


def traced_run(run: Run, workload: Workload) -> dict:
    """Round 0 and the layer probes, once untraced and once traced."""
    _setup_probe(run, timed=False)
    invocations = workload.round(0) + [
        Invocation(list(argv), 1, {"command": argv[0]}) for argv in LAYER_PROBES]
    plain = [(inv, run.call(inv.argv)) for inv in invocations]
    traced, traces = [], []
    for i, inv in enumerate(invocations):
        out = os.path.join(run.workdir, f"trace-{i}.json")
        traced.append((inv, run.call(inv.argv, trace_out=out)))
        try:
            with open(out, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        except (OSError, ValueError):
            pass
    attempted, failed, problems = _check(plain + traced)
    for (inv, a), (_, b) in zip(plain, traced):
        if a["stdout"] != b["stdout"]:
            failed += inv.ops
            problems.append(f"{' '.join(inv.argv)}: traced output differs")
    if len(traces) != len(invocations):
        failed += 1
        problems.append("a traced invocation wrote no trace")
    metrics = layer_metrics(traces)
    metrics["cli.bytes_emitted"] = (
        sum(len(res["stdout"]) for _, res in traced), "bytes")
    metrics["trace_overhead_ratio"] = (
        sum(r["wall"] for _, r in traced) / sum(r["wall"] for _, r in plain),
        "ratio")
    notes = [f"traced invocations {len(invocations)} (round 0 and "
             f"{len(LAYER_PROBES)} layer probes)"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes, "digests": _digests(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blockatlas", "cli.py")):
        sys.stderr.write("run.py: no src/blockatlas here; run it from the "
                         "root of a blockatlas checkout\n")
        return 2
    # The program computes on one core at a time (the GIL).  Running it on
    # one CPU removes the cross-core lock hand-off, whose cost follows the
    # host's scheduling of the other virtual CPU and dominated run-to-run
    # spread on a shared 2-vCPU machine.  Children inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        run = Run(root, workdir)
        workload = Workload(args.workload, args.seed, workdir)
        if args.trace:
            out = traced_run(run, workload)
        else:
            out = timed_run(run, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in out["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for note in out["notes"]:
        print(note)
    for digest, argv_text in out["digests"]:
        print(f"report_sha256 {digest} {argv_text}")
    for problem in out["problems"][:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
