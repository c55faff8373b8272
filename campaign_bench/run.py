#!/usr/bin/env python3
"""The enumeration-campaign benchmark.

    python3 campaign_bench/run.py --workload sweep|fleet|tier_load \\
        --seed N --seconds S --trace 0|1
    python3 campaign_bench/run.py --smoke
    python3 campaign_bench/run.py --negative
    python3 campaign_bench/run.py --reference-totals
    python3 campaign_bench/run.py --write-benchmark-json

Run from any directory of a source checkout: the benchmark builds
`rvt_cli` and `campaign_probe` from the parent directory's sources into
$CARGO_TARGET_DIR (default `.bench_build`) and keeps all scratch output
there. With --trace 0 it repeats whole campaigns through `rvt_cli` for
about S seconds and prints the end-to-end metrics; with --trace 1 it
replays the workload in process (campaign_probe) for the per-layer
metrics and pairs traced with untraced campaigns for the trace overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import campaign as cp  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
CMAKE_DIR = BUILD / "campaign_bench"
WORK = BUILD / "campaign_work"
CLI = CMAKE_DIR / "rvt" / "rvt_cli"
PROBE = CMAKE_DIR / "campaign_probe"
JOBS = max(1, min(4, os.cpu_count() or 1))

# Whole-battery defeat totals on the reference stepper; `--reference-totals`
# recomputes them (README.md records the run).
EXPECTED_TOTALS = {
    "e10:8": 835870,
    "e10:14": 5426593,
}

WORKLOADS = {
    "sweep": {
        "spec": "e10:14", "shards": 1,
        "why": "one shard run over e10:14 with the in-memory orbit cache "
               "only: the enumeration core, with the wire, coordinator and "
               "tier bypassed"},
    "fleet": {
        "spec": "e10:14", "shards": 8,
        "why": "serve with 8 shards and 2 workers over loopback on the same "
               "battery: adds leases, chunk streaming, ledger fsyncs and "
               "remote-store round trips"},
    "tier_load": {
        "spec": "e10:14", "shards": 1,
        "why": "one shard run over e10:14 against a tier its own cold pass "
               "filled: every binding is loaded and deserialized instead of "
               "extracted"},
}
SMOKE_SPEC = "e10:8"
FLEET_WORKERS = 2
# A worker that loses its coordinator after the last seal retries this
# often before it exits; the run reaps it within WORKER_GRACE_S.
WORKER_RECONNECT = ["--reconnect-attempts", "2", "--reconnect-base-ms", "10"]
WORKER_GRACE_S = 10.0
REFERENCE_STRIDE = 32
MIN_CAMPAIGNS = 3
CHILD_TIMEOUT_S = 120.0

RUN_SECONDS = 30
# name: (unit, better, bound, how a run summarises its campaigns).
# Timings take the run's best campaign: contention from other tenants of
# the host only ever adds time to this memory-bound program, by up to 40%
# in phases of 10-20 s, while a run's fastest campaign moves a third as
# much (README.md, "Noise sources"). set-up is timed once per run, cold:
# the first campaign's.
E2E = {
    "setup_s": ("s", "lower", 0.25, lambda xs: xs[0]),
    "campaign_s": ("s", "lower", 0.24, min),
    "first_result_s": ("s", "lower", 0.24, min),
    "verdicts_per_s": ("1/s", "higher", 0.24, max),
    "cpu_s": ("s", "lower", 0.24, min),
    "peak_rss_mb": ("MiB", "lower", 0.05, statistics.median),
}
LAYER_UNITS = {
    "dist.workload.parse_s": "s",
    "dist.shard_plan.make_s": "s",
    "sim.compiled.compile_s": "s",
    "sim.compiled.extract_s": "s",
    "sim.compiled.orbits_extracted": "count",
    "sim.compiled.scan_s": "s",
    "sim.enumeration.index_p50_ms": "ms",
    "sim.enumeration.index_p99_ms": "ms",
    "sim.enumeration.queries": "count",
    "sim.enumeration.bindings": "count",
    "sim.enumeration.canonical_collapses": "count",
    "sim.orbit_cache.hits": "count",
    "sim.orbit_cache.misses": "count",
    "sim.orbit_cache.hit_rate": "ratio",
    "dist.serialize.serialize_s": "s",
    "dist.serialize.deserialize_s": "s",
    "dist.serialize.bytes": "bytes",
    "dist.fs_store.store_s": "s",
    "dist.fs_store.store_count": "count",
    "dist.fs_store.load_s": "s",
    "dist.fs_store.load_count": "count",
    "dist.fs_store.bytes_on_disk": "bytes",
    "dist.fs_store.files": "count",
    "dist.journal.records": "count",
    "dist.journal.bytes": "bytes",
    "dist.ledger.records": "count",
    "dist.ledger.append_ms_p50": "ms",
    "dist.merge.merge_s": "s",
    "svc.coordinator.leases_granted": "count",
    "svc.coordinator.journal_bytes_streamed": "bytes",
    "svc.coordinator.orbit_gets": "count",
    "svc.coordinator.first_sealed_shard_s": "s",
    "svc.net_store.round_trip_ms_p50": "ms",
    "svc.worker.compute_s": "s",
    "svc.worker.flush_s": "s",
    "obs.trace_overhead_ratio": "ratio",
}
LAYER_HIGHER_IS_BETTER = {
    "sim.enumeration.queries",
    "sim.enumeration.canonical_collapses",
    "sim.orbit_cache.hits",
    "sim.orbit_cache.hit_rate",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------- build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no source tree at {ROOT}")
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", str(JOBS),
                  "--target", "rvt_cli", "campaign_probe"])
    for argv in steps:
        proc = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(argv)}")


def probe_json(args, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run([str(PROBE), *args], capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.stderr:
        log(proc.stderr.rstrip())
    if not lines:
        raise BenchError(f"campaign_probe {args[0]} printed nothing")
    return proc.returncode, json.loads(lines[-1])


# --------------------------------------------------------------- campaigns


class Run:
    """One benchmark run of one workload: its campaigns and checks."""

    def __init__(self, workload, spec, shards, seed, expected_total, inject):
        self.workload = workload
        self.spec = spec
        self.shards = shards
        self.seed = seed
        self.expected_total = expected_total
        self.inject = inject
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.serial = 0
        self.children = []
        _, info = probe_json(["info", "--spec", spec])
        self.indices = int(info["indices"])
        self.queries = int(info["queries"])
        self.problems = []  # run-level check failures

    def fresh_dir(self, tag):
        self.serial += 1
        d = self.dir / f"{self.serial:03d}-{tag}"
        (d / "journals").mkdir(parents=True)
        return d

    def launch(self, argv, out, env=None):
        child = cp.Child([str(CLI), *argv], str(out), env)
        self.children.append(child)
        return child

    def stop_all(self):
        for c in self.children:
            c.kill()
        for c in self.children:
            c.reap()

    # -- one campaign: run and merge one shard (sweep, tier) ---------------
    def shard_campaign(self, tag, cache_dir=None, trace=False):
        d = self.fresh_dir(tag)
        jdir = d / "journals"
        env = trace_env(d) if trace else None
        plan = d / "plan.bin"
        # The one-shard plan is the campaign's input: made before the
        # clock starts. A failed plan shows as a failed `shard run`.
        self.launch(["shard", "plan", "--workload", self.spec, "--shards",
                     "1", "--out", str(plan)], d / "plan.out").wait(
                         CHILD_TIMEOUT_S)
        rec = {"tag": tag, "dir": d, "jdir": jdir, "children": [],
               "trace": trace}
        marks = {}
        argv = ["shard", "run", str(plan), "0", "--journal-dir", str(jdir)]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        watch = cp.DirWatch([str(jdir)])
        t0 = cp.now()
        try:
            run = self.launch(argv, d / "run.out", env)
            rec["children"].append(run)
            follow(watch, run, lambda *ev: journal_marks(marks, *ev), marks)
        finally:
            watch.close()
        if run.returncode == 0 and self.inject == "swap":
            self.swap_defeat(jdir)
        merge = self.launch(["shard", "merge", str(plan), "--journal-dir",
                             str(jdir)], d / "merge.out", env)
        merge.wait(CHILD_TIMEOUT_S)
        rec["children"].append(merge)
        return self.finish(rec, t0, marks, cp.now())

    # -- one campaign: serve + workers over loopback (fleet) --------------
    def fleet_campaign(self, tag, trace=False):
        d = self.fresh_dir(tag)
        jdir = d / "journals"
        env = trace_env(d) if trace else None
        rec = {"tag": tag, "dir": d, "jdir": jdir, "children": [],
               "workers": [], "trace": trace}
        marks = {}
        watch = cp.DirWatch([str(d), str(jdir)])

        def on_event(directory, name, mask, t):
            if name == "port" and "setup" not in marks:
                marks["setup"] = t
                port = (d / "port").read_text().split()[0]
                for k in range(FLEET_WORKERS):
                    rec["workers"].append(self.launch(
                        ["worker", "--connect", f"127.0.0.1:{port}",
                         "--name", f"w{k}", *WORKER_RECONNECT],
                        d / f"worker{k}.out", env))
            else:
                journal_marks(marks, directory, name, mask, t)

        t0 = cp.now()
        try:
            serve = self.launch(
                ["serve", "--workload", self.spec, "--shards",
                 str(self.shards), "--journal-dir", str(jdir),
                 "--port-file", str(d / "port")], d / "serve.out", env)
            rec["children"].append(serve)
            follow(watch, serve, on_event, marks)
        finally:
            watch.close()
        t_end = cp.now()
        # The campaign ends when serve exits; each worker then meets a
        # closed socket (or kDrained) and exits on its own within its
        # reconnect budget. Its exit status is recorded, not judged.
        for w in rec["workers"]:
            w.wait(WORKER_GRACE_S)
        return self.finish(rec, t0, marks, t_end)

    def finish(self, rec, t0, marks, t_end):
        everyone = rec["children"] + rec.get("workers", [])
        rec["campaign_s"] = t_end - t0
        rec["setup_s"] = marks.get("setup", t_end) - t0
        rec["first_result_s"] = marks.get("first", t_end) - t0
        busy = rec["campaign_s"] - rec["setup_s"]
        rec["verdicts_per_s"] = (self.indices * self.queries / busy
                                 if busy > 0 else 0.0)
        rec["cpu_s"] = sum(c.cpu_s for c in everyone)
        rec["peak_rss_mb"] = max((c.maxrss_kib for c in everyone),
                                 default=0) / 1024.0
        rec["problems"] = self.check(rec, marks)
        rec["values"] = rec.pop("_values", None)
        log(f"{self.workload} {rec['tag']}: campaign {rec['campaign_s']:.3f} s, "
            f"setup {rec['setup_s']:.4f} s, first result "
            f"{rec['first_result_s']:.4f} s, cpu {rec['cpu_s']:.2f} s, "
            f"peak rss {rec['peak_rss_mb']:.0f} MiB"
            + (f", worker exits {[w.returncode for w in rec['workers']]}"
               if rec.get("workers") else "")
            + (f"; PROBLEMS: {rec['problems']}" if rec["problems"] else ""))
        return rec

    # -- output checks ------------------------------------------------------
    def check(self, rec, marks):
        problems = []
        for c in rec["children"]:
            if c.returncode != 0:
                problems.append(f"{c.argv[1]} {c.argv[2]} exited "
                                f"{c.returncode}: {c.output()[-300:]}")
        if problems:
            return problems
        if "setup" not in marks or "first" not in marks:
            problems.append("no set-up or first-result event seen")
        final = rec["children"][-1].output()
        want = f"merged: {self.expected_total} defeats over {self.indices} indices"
        if want not in final:
            problems.append(f"merged total: want '{want}', got "
                            f"{[l for l in final.splitlines() if 'merged' in l]}")
        try:
            values = cp.read_journal_dir(rec["jdir"], self.indices)
        except (cp.JournalError, OSError) as e:
            return problems + [f"journal: {e}"]
        rec["_values"] = values
        # Theorem-backed bounds: E10 defeats every K <= 3 automaton on
        # some line of n <= 5, so each index loses at least one query of
        # these batteries; no index can lose more queries than exist.
        low = [i for i, v in enumerate(values) if v < 1]
        high = [i for i, v in enumerate(values) if v > self.queries]
        if low or high:
            problems.append(f"defeat bounds violated at {low[:5]} {high[:5]}")
        if sum(values) != self.expected_total:
            problems.append(f"journal sum {sum(values)} != "
                            f"{self.expected_total}")
        if rec.get("workers"):
            want = (f"{self.shards}/{self.shards} shards sealed, "
                    f"{self.shards} leases, 0 lease expiries, 0 requeues, "
                    f"0 quarantined, {FLEET_WORKERS} runners")
            if want not in final:
                problems.append(f"fleet did not run clean: want '{want}'")
        if rec["tag"].startswith(("sweep", "tier")):
            hits, stores = tier_counts(rec["children"][0].output())
            if rec["tag"].startswith("sweep") and (hits or stores):
                problems.append(f"sweep touched a tier ({hits}, {stores})")
            if rec["tag"].startswith("tier_store") and stores == 0:
                problems.append("cold tier pass stored nothing")
            if rec["tag"].startswith("tier_load") and (hits == 0 or stores):
                problems.append(f"warm tier pass: {hits} hits, {stores} stores")
        return problems

    def swap_defeat(self, jdir):
        """Negative-test fault: moves one defeat from an index outside the
        reference stride to one inside it, re-signing both records — the
        journal stays valid and its total unchanged."""
        (name,) = [n for n in os.listdir(jdir) if n.endswith(".journal")]
        path = os.path.join(jdir, name)
        _, _, values = cp.read_journal(path)
        offset = self.seed % REFERENCE_STRIDE
        up = next(i for i in range(offset, self.indices, REFERENCE_STRIDE)
                  if values[i] < self.queries)
        down = next(i for i in range(self.indices)
                    if (i - offset) % REFERENCE_STRIDE and values[i] > 1)
        cp.rewrite_record(path, up, +1)
        cp.rewrite_record(path, down, -1)

    def reference_check(self, values):
        """Recomputes a seed-chosen stride of indices on the reference
        stepper and compares them with the campaign's journal values."""
        offset = self.seed % REFERENCE_STRIDE
        code, ref = probe_json(["reference", "--spec", self.spec, "--stride",
                                str(REFERENCE_STRIDE), "--offset", str(offset)])
        if code != 0:
            return ["reference stepper run failed"]
        wrong = [(i, v, values[i]) for i, v in ref["values"] if values[i] != v]
        log(f"{self.workload}: reference stepper rechecked "
            f"{len(ref['values'])} indices (offset {offset}), "
            f"{len(wrong)} differ")
        return [f"reference stepper disagrees at (index, ref, got) {wrong[:5]}"
                ] if wrong else []


def trace_env(d):
    env = dict(os.environ)
    env["RVT_TRACE_FILE"] = str(d / "trace.bin")
    return env


def journal_marks(marks, directory, name, mask, t):
    """set-up ends when the first journal is created; the first result
    is durable when a journal holds one whole record."""
    if not (name.startswith("shard-") and name.endswith(".journal")):
        return
    if mask & cp.IN_CREATE and "setup" not in marks:
        marks["setup"] = t
    if "first" not in marks:
        try:
            size = os.stat(os.path.join(directory, name)).st_size
        except OSError:
            return
        if size >= cp.PREAMBLE_BYTES + cp.RECORD_BYTES:
            marks["first"] = t


def follow(watch, until, on_event, marks):
    """Dispatches file events, stamped on arrival, until `until` exits;
    stops reading events once set-up and first result are both marked."""
    poller = select.poll()
    poller.register(watch.fd, select.POLLIN)
    poller.register(until.pidfd, select.POLLIN)
    watching = True
    deadline = cp.now() + CHILD_TIMEOUT_S
    while True:
        left = deadline - cp.now()
        if left <= 0:
            until.kill()
            until.reap()
            return
        ready = poller.poll(left * 1000)
        t = cp.now()
        fds = {fd for fd, _ in ready}
        if watching and (watch.fd in fds or until.pidfd in fds):
            for ev in watch.read():
                on_event(*ev, t)
            if "setup" in marks and "first" in marks:
                poller.unregister(watch.fd)
                watching = False
        if until.pidfd in fds:
            until.reap()
            return


def tier_counts(shard_run_output):
    """(tier hits, tier stores) from `shard run`'s summary line."""
    for line in shard_run_output.splitlines():
        if "tier hits" in line:
            part = line.split("(cache: ", 1)[1]
            fields = [f.strip() for f in part.replace(";", ",").split(",")]
            hits = int(fields[1].split()[0])
            stores = int(fields[2].split()[0])
            return hits, stores
    return 0, 0


# ---------------------------------------------------------------- workloads


def run_workload(name, seed, seconds, trace, spec=None, inject=None,
                 min_campaigns=MIN_CAMPAIGNS):
    wl = WORKLOADS[name]
    spec = spec or wl["spec"]
    expected = EXPECTED_TOTALS[spec] + (1 if inject == "total" else 0)
    run = Run(name, spec, wl["shards"], seed, expected, inject)
    try:
        return measure(run, name, seconds, trace, min_campaigns)
    finally:
        run.stop_all()
        shutil.rmtree(run.dir, ignore_errors=True)


def measure(run, name, seconds, trace, min_campaigns):
    # Untimed preparation: the baseline every timed campaign must equal.
    tier = run.dir / "tier"
    if name == "fleet":
        base = run.shard_campaign("sweep-baseline")
        campaign = lambda tr: run.fleet_campaign("fleet", tr)  # noqa: E731
    elif name == "tier_load":
        base = run.shard_campaign("tier_store-fill", cache_dir=tier)
        campaign = lambda tr: run.shard_campaign(  # noqa: E731
            "tier_load", cache_dir=tier, trace=tr)
    else:
        base = None
        campaign = lambda tr: run.shard_campaign("sweep", trace=tr)  # noqa: E731

    layers = {}
    if trace:
        code, out = probe_json(["layers", "--spec", run.spec, "--shards",
                                str(run.shards), "--work",
                                str(run.dir / "probe")], timeout=170)
        layers = out.get("metrics", {})
        if code != 0 or not out.get("consistent"):
            run.problems.append("in-process replay disagrees with itself")
        if out.get("total") != run.expected_total:
            run.problems.append("in-process replay total is wrong")

    records = []
    t_start = cp.now()
    while True:
        if trace:
            # Alternate which side of a pair runs first.
            first_traced = (len(records) // 2) % 2 == 1
            pair = [campaign(first_traced), campaign(not first_traced)]
            pair.sort(key=lambda r: r["trace"])
            export_ok = check_trace_export(pair[1])
            if not export_ok:
                pair[1]["problems"].append("trace export failed")
            records += pair
        else:
            records.append(campaign(False))
        for r in records[-2 if trace else -1:]:
            shutil.rmtree(r["dir"], ignore_errors=True)
        elapsed = cp.now() - t_start
        step = elapsed / (len(records) / (2 if trace else 1))
        done = len(records) // (2 if trace else 1)
        if done >= min_campaigns and elapsed + step > seconds:
            break

    baseline = base["values"] if base is not None else records[0]["values"]
    if base is not None:
        run.problems += [f"baseline: {p}" for p in base["problems"]]
    if baseline is None:
        run.problems.append("no baseline values")
    else:
        run.problems += run.reference_check(baseline)
        for r in records:
            if r["values"] is not None and r["values"] != baseline:
                r["problems"].append(f"per-index values differ from "
                                     f"{'sweep' if name == 'fleet' else 'the baseline'}")
    return report(run, records, trace, layers)


def check_trace_export(rec):
    out = rec["dir"] / "trace.json"
    proc = subprocess.run([str(CLI), "trace", "export", "--chrome",
                           str(rec["dir"] / "trace.bin"), "--out", str(out)],
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out.is_file():
        return False
    with open(out) as f:
        events = json.load(f).get("traceEvents", [])
    return len(events) > 0


def report(run, records, trace, layers):
    exits = [w.returncode for r in records for w in r.get("workers", [])]
    if exits:
        log(f"{run.workload}: worker exit statuses after the merge: "
            + ", ".join(f"{code} x{exits.count(code)}"
                        for code in sorted(set(exits), key=str)))
    failed = sum(1 for r in records if r["problems"] or run.problems)
    correct = not run.problems and failed == 0
    for p in run.problems:
        log(f"{run.workload}: CHECK FAILED: {p}")
    if trace:
        untraced = [r["campaign_s"] for r in records if not r["trace"]]
        traced = [r["campaign_s"] for r in records if r["trace"]]
        layers["obs.trace_overhead_ratio"] = min(traced) / min(untraced)
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in LAYER_UNITS.items()}
        missing = [k for k in LAYER_UNITS if k not in layers]
        if missing:
            run.problems.append(f"per-layer metrics missing: {missing}")
            correct = False
    else:
        metrics = {k: {"value": summary([r[k] for r in records]),
                       "unit": unit}
                   for k, (unit, _, _, summary) in E2E.items()}
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": metrics}


# ------------------------------------------------------------------- modes


def smoke():
    """Every workload once at a small spec, then the per-layer replay."""
    ok = True
    for name in WORKLOADS:
        res = run_workload(name, 1, 0, trace=False, spec=SMOKE_SPEC,
                           min_campaigns=1)
        good = res["correct"] and res["failed"] == 0
        ok = ok and good
        print(f"smoke {name}: {'ok' if good else 'FAILED'} "
              f"{json.dumps(res['metrics'])}")
    res = run_workload("sweep", 1, 0, trace=True, spec=SMOKE_SPEC,
                       min_campaigns=1)
    good = res["correct"] and res["failed"] == 0
    ok = ok and good
    print(f"smoke per-layer: {'ok' if good else 'FAILED'} "
          f"({len(res['metrics'])} metrics)")
    return ok


def negative():
    """Shows the output checks can fail: a re-signed journal record that
    moves one defeat between indices, and a wrong expected total, must
    each make every campaign of the run a failed operation."""
    ok = True
    for inject in ("swap", "total", None):
        res = run_workload("sweep", 7, 0, trace=False, spec=SMOKE_SPEC,
                           inject=inject, min_campaigns=2)
        if inject is None:
            good = res["correct"] and res["failed"] == 0
        else:
            good = (not res["correct"]) and res["failed"] == res["attempted"]
        ok = ok and good
        print(f"negative {inject or 'clean'}: {'ok' if good else 'FAILED'} "
              f"(attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']})")
    return ok


def reference_totals():
    ok = True
    for spec, expected in EXPECTED_TOTALS.items():
        code, out = probe_json(["totals", "--spec", spec, "--threads",
                                str(JOBS)], timeout=900)
        total = int(out["total"])
        ok = ok and code == 0 and total == expected
        print(f"{spec}: reference total {total} over {int(out['indices'])} "
              f"indices in {out['seconds']:.1f} s "
              f"({'matches' if total == expected else 'DIFFERS from'} "
              f"{expected})")
    return ok


def write_benchmark_json():
    """Writes the repository's BENCHMARK.json from the tables above."""
    doc = {
        "command": ["python3", "campaign_bench/run.py"],
        "paths": ["campaign_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": w["why"]}
                      for k, w in WORKLOADS.items()],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound, _) in E2E.items()],
        "per_layer": [{"name": k, "unit": u,
                       "better": ("higher" if k in LAYER_HIGHER_IS_BETTER
                                  else "lower")}
                      for k, u in LAYER_UNITS.items()],
    }
    with open(ROOT / "BENCHMARK.json", "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--negative", action="store_true")
    ap.add_argument("--reference-totals", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if not (args.workload or args.smoke or args.negative
            or args.reference_totals):
        ap.error("--workload is required")
    try:
        build()
        if args.smoke:
            return 0 if smoke() else 1
        if args.negative:
            return 0 if negative() else 1
        if args.reference_totals:
            return 0 if reference_totals() else 1
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"campaign benchmark: {e}")
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
