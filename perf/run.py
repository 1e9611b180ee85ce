#!/usr/bin/env python3
"""The repository benchmark: pmsbsim wall time, CPU time, set-up time and
peak memory on four workloads, plus per-layer numbers from a traced pass and
isolated probes. perf/README.md describes the workloads and every metric.

  python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload: an untimed warm-up, then for about S seconds either
      timed runs (--trace 0: the end-to-end metrics) or traced passes plus
      the probes (--trace 1: the per-layer metrics). The last stdout line is
      {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
  python3 perf/run.py [--seed N] [--out FILE] [--quick]
      Every workload: one untimed warm-up round, 20 timed runs per workload
      interleaved round-robin, then one traced pass and the probes per
      workload. --quick: 1 timed run at small sizes.
  python3 perf/run.py compare A.json B.json
      Applies each end-to-end bound to two --out files, on the medians and
      on the fastest samples. Exits 1 on a regression, 3 when noise leaves
      a metric unresolved, 0 otherwise.

A time reports the fastest of a run's samples, scaled to the reference
host's speed as measured by perf/ref.cpp next to every timed run; peak RSS
reports the median. Every sample, raw and scaled, with the median and
quartiles, is kept in the --out file. perf/README.md has the measurements
behind these choices.

Closed loop with one client: one pmsbsim process at a time (regress-sweep
runs its two sweep workers inside that process). Every process is measured
by perf/launch.cpp. The programs are built from this checkout's sources
into .bench_build/ on first use. Standard library only.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
TIMED_REPS = 20
SETUPS_PER_REP = 3  # zero-horizon runs per timed run: setups are short
MIN_REPS = 3        # timed runs per --workload invocation, whatever --seconds
PROC_CAP_S = 170.0  # every process of a --workload invocation ends by then
WORK_CAP_S = 120.0  # ... and no run starts later than this after the build
PROBE_EST_S = 3.0
# pmsb_ref's wall time on the reference host. Reported times are scaled by
# REF_NOMINAL_S / (the fastest pmsb_ref run of the same invocation).
REF_NOMINAL_S = 0.150


@dataclass(frozen=True)
class Workload:
    args: tuple         # pmsbsim key=value tokens; seed= and outputs are added
    zero: str           # the token that sets a zero simulated horizon
    probe: tuple        # pmsb_probe tokens: the workload's scheduler and RTT
    inputs: tuple = ()  # pmsb_inputs tokens (a Poisson trace); empty = none
    quick: dict = field(default_factory=dict)  # size overrides for --quick
    sweep: bool = False


LEAFSPINE_PROBE = ("scheduler=dwrr", "queues=8", "rtt_us=85.2")

# The sizes are pinned here and in each workload's `why` in BENCHMARK.json.
WORKLOADS = {
    "fabric-poisson": Workload(
        args=("topology=leafspine", "scheme=pmsb", "scheduler=dwrr"),
        inputs=("flows=120", "load=0.6"),
        zero="max_sim_s=0",
        probe=LEAFSPINE_PROBE,
        quick={"flows": "30"}),
    "dumbbell-1v100": Workload(
        args=("topology=dumbbell", "scheme=pmsb", "scheduler=wfq", "queues=2",
              "flows_per_queue=1,100", "duration_ms=800"),
        zero="duration_ms=0",
        probe=("scheduler=wfq", "queues=2", "rtt_us=18"),
        quick={"duration_ms": "100"}),
    "fabric-rpc-incast": Workload(
        args=("topology=leafspine", "pattern=rpc", "rpcs=1200"),
        zero="max_sim_s=0",
        probe=LEAFSPINE_PROBE,
        quick={"rpcs": "100"}),
    "regress-sweep": Workload(
        args=("topology=leafspine", "digest=1", "jobs=2",
              "sweep=scheme:pmsb,tcn,mq-ecn,perqueue-std"),
        inputs=("flows=30", "load=0.5"),
        zero="max_sim_s=0",
        probe=LEAFSPINE_PROBE,
        quick={"flows": "20"},
        sweep=True),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no build, no successful run)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


def override(tokens, values):
    """Replaces the value of every key=value token whose key is in `values`."""
    out = []
    for tok in tokens:
        key = tok.split("=", 1)[0]
        out.append(f"{key}={values[key]}" if key in values else tok)
    return tuple(out)


def reported(name, samples):
    """The value an end-to-end metric reports over a run's samples. A time
    reports the fastest: interference from other tenants of a shared host
    only ever adds time. Peak RSS reports the median: in the sweep it moves
    both ways with how the workers' cells overlap."""
    return statistics.median(samples) if name == "peak_rss_mb" else min(samples)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- spans ------------------------------------------------------------------

class Spans:
    """In-memory span tree (name, start, end, parent) on CLOCK_MONOTONIC: one
    span per workload and phase, per process, and per probe batch."""

    def __init__(self):
        self.spans = []
        self.root = self.open("perf/run.py", None)

    def add(self, name, start_ns, end_ns, parent):
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                           "start_ns": start_ns, "end_ns": end_ns})
        return len(self.spans) - 1

    def open(self, name, parent):
        return self.add(name, time.monotonic_ns(), None, parent)

    def close(self, span_id):
        self.spans[span_id]["end_ns"] = time.monotonic_ns()

    def graft(self, spans, parent):
        """Adds spans recorded by a probe process, renumbered under `parent`."""
        ids = {}
        for s in spans:
            ids[s["id"]] = self.add(s["name"], s["start_ns"], s["end_ns"],
                                    ids.get(s["parent"], parent))


SPANS = Spans()


# --- processes --------------------------------------------------------------

def child_env():
    # PMSB_* variables inject crashes or write extra files; never inherit them.
    return {k: v for k, v in os.environ.items() if not k.startswith("PMSB_")}


def run_process(cmd, timeout, stdout=subprocess.PIPE):
    """Runs `cmd` in a session of its own and waits for it. On timeout or
    interruption it kills the whole group (the launcher and its child)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env())
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def build():
    """Configures (once) and builds the benchmark's programs."""
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        raise BenchError(f"no simulator sources in {ROOT} (needs src/ and tools/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perf"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    build_log = BUILD.parent / "build.log"
    span = SPANS.open("build", SPANS.root)
    with open(build_log, "w") as out:
        for step in steps:
            code, _, err = run_process(step, 840, stdout=out)
            if code != 0:
                out.write(err)
                raise BenchError(f"build failed: {' '.join(step)} (see {build_log})")
    SPANS.close(span)


# --- per-layer arithmetic ---------------------------------------------------

def layer_of(scope):
    """Profiler scope name -> layer: the scheduler and scheme names vary."""
    if scope.startswith("sched."):
        return "sched." + scope.rsplit(".", 1)[1]
    if scope.startswith("ecn."):
        return "ecn.should_mark"
    return scope


def scope_stats(profiles, cal):
    """Per-layer call counts and self times from pmsb.profile/1 documents,
    less the self time an empty scope reports (empty_scope_self_ns) per call.

    A parent's self time still holds the share of each nested scope's
    begin/end pair that lands in it (nested_scope_extra_ns per child, kept
    in the --out file's calibration block). The profile does not record
    nesting, so that share is not subtracted; trace.scope_cost_ns says how
    large it can be.
    """
    e, c = cal["empty_scope_self_ns"], cal["scope_cost_ns"]
    layers = {}  # layer -> [calls, calibrated self ns]
    calls = dispatch_wall = dispatches = 0
    for prof in profiles:
        for s in prof["scopes"]:
            acc = layers.setdefault(layer_of(s["name"]), [0, 0.0])
            acc[0] += s["count"]
            acc[1] += s["self_wall_ns"] - s["count"] * e
            calls += s["count"]
        kernel = prof["kernel"]
        dispatch_wall += kernel["dispatch_wall_ns"]
        dispatches += kernel["dispatches"]
    attributed = sum(ns for _, ns in layers.values())
    return {
        "layers": layers,
        "attributed_frac": attributed / max(dispatch_wall - calls * c, 1.0),
        "probe_cost_s": (calls * c + dispatches * cal["hook_ns_per_dispatch"]) * 1e-9,
    }


# --- one workload -----------------------------------------------------------

class Tally:
    """Processes attempted and failed across every workload of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Bench:
    """Runs one workload's processes, checks their results, keeps samples."""

    def __init__(self, name, seed, quick, tally, deadline):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.tally = tally
        self.deadline = deadline  # monotonic time by which every process ends
        self.dir = RUNS / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.args = override(self.w.args, self.w.quick) if quick else self.w.args
        self.jobs = int(dict(t.split("=", 1) for t in self.args).get("jobs", 1))
        self.span = SPANS.open(name, SPANS.root)
        self.reference = None  # deterministic results of the first run
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # One sample per successful run at the timed config.
        self.walls, self.cpus, self.rss, self.setups = [], [], [], []
        self.refs = []     # pmsb_ref wall times: the host's speed
        self.passes = []   # raw observations of each traced pass
        self.digests = []
        self.probe = None

    def timeout(self):
        return max(1.0, min(PROC_CAP_S, self.deadline - time.monotonic()))

    def count(self, ok, what):
        self.attempted += 1
        self.tally.attempted += 1
        if not ok:
            self.failed += 1
            self.tally.failed += 1
            self.errors.append(what)
            log(f"[{self.name}] FAILED {what}")
        return ok

    def prepare(self):
        """Generates the seeded input trace, when the workload has one."""
        if not self.w.inputs:
            return
        tokens = override(self.w.inputs, self.w.quick) if self.quick else self.w.inputs
        path = self.dir / f"input-seed{self.seed}.ndjson"
        span = SPANS.open("pmsb_inputs", self.span)
        code, _, err = run_process([str(BUILD / "pmsb_inputs"), *tokens,
                                    f"seed={self.seed}", f"out={path}"], self.timeout())
        SPANS.close(span)
        if not self.count(code == 0, f"inputs: {err.strip()}"):
            raise BenchError(f"[{self.name}] cannot generate inputs")
        self.args = self.args + (f"trace_file={path}",)

    def launch(self, kind, extra, parent):
        """Runs pmsbsim once through the launcher. Returns (measurement, path
        of the output document, error or "")."""
        out = self.dir / f"{kind}.json"
        out.unlink(missing_ok=True)
        target = "sweep_json" if self.w.sweep else "metrics_json"
        cmd = [str(BUILD / "pmsb_launch"), str(self.dir / f"{kind}.log"),
               str(BUILD / "tools" / "pmsbsim"), *self.args, f"seed={self.seed}",
               f"{target}={out}", *extra]
        code, stdout, err = run_process(cmd, self.timeout())
        if code != 0:
            return None, out, f"launcher: {err.strip()}"
        m = json.loads(stdout)
        SPANS.add(f"pmsbsim {kind}", m["start_ns"], m["end_ns"], parent)
        if m["exit_code"] != 0 or m["signal"] != 0:
            tail = (self.dir / f"{kind}.log").read_text(errors="replace")[-300:]
            return m, out, f"exit {m['exit_code']} signal {m['signal']}: {tail}"
        return m, out, ""

    def warm_up(self):
        """An untimed zero-horizon run: the program and its inputs reach the
        page cache before anything is timed."""
        _, _, error = self.launch("warmup", (self.w.zero,), self.span)
        self.count(not error, f"warmup: {error}")

    def setup_runs(self, parent):
        """The timed invocation with a zero simulated horizon, SETUPS_PER_REP
        times."""
        for _ in range(SETUPS_PER_REP):
            m, _, error = self.launch("setup", (self.w.zero,), parent)
            if self.count(not error, f"setup: {error}"):
                self.setups.append(m["wall_s"])

    def host_sample(self, parent):
        """One pmsb_ref run: how fast the host is right now."""
        cmd = [str(BUILD / "pmsb_launch"), str(self.dir / "ref.log"), str(BUILD / "pmsb_ref")]
        code, stdout, err = run_process(cmd, self.timeout())
        m = json.loads(stdout) if code == 0 else None
        ok = m is not None and m["exit_code"] == 0 and m["signal"] == 0
        if self.count(ok, f"pmsb_ref: {err.strip()}"):
            SPANS.add("pmsb_ref", m["start_ns"], m["end_ns"], parent)
            self.refs.append(m["wall_s"])

    def rep(self, parent):
        """One timed rep: the set-ups, a host sample, the timed run."""
        self.setup_runs(parent)
        self.host_sample(parent)
        self.timed_run(parent)

    def run(self, kind, parent, extra=(), drop=()):
        """A full-horizon run: launched, validated, and compared with the first
        run's deterministic results, except results whose name starts with a
        prefix in `drop` (which `extra` legitimately changes). Returns
        (measurement, output document), or None when the run failed."""
        m, out, error = self.launch(kind, extra, parent)
        doc = None
        if not error:
            try:
                doc = json.loads(out.read_text())
                error = self.validate(doc)
            except (OSError, ValueError, KeyError) as e:
                error = f"unreadable output: {e}"
        if not error:
            det = self.deterministic(doc)
            if self.reference is None:
                if not drop:  # a run at the timed config sets the reference
                    self.reference = det
            elif without(det, drop) != without(self.reference, drop):
                error = "deterministic results differ from the first run"
        return (m, doc) if self.count(not error, f"{kind}: {error}") else None

    def timed_run(self, parent):
        """A run at the timed config; its measurements become samples."""
        got = self.run("timed", parent)
        if got is not None:
            m = got[0]
            self.walls.append(m["wall_s"])
            self.cpus.append(m["utime_s"] + m["stime_s"])
            self.rss.append(m["maxrss_kb"] / 1024.0)

    def cells(self, doc):
        """(label, results, info) of every simulated run in the document."""
        if self.w.sweep:
            return [(r["label"], r["results"], r["info"]) for r in doc["runs"]]
        return [("", doc["results"], doc["info"])]

    def inner_wall(self, doc):
        """Wall time spent simulating inside the process: the manifest's wall
        clock, or the sum of the sweep cells' wall times."""
        if self.w.sweep:
            return sum(r["wall_ms"] for r in doc["runs"]) / 1e3
        return doc["wall_clock_s"]

    def validate(self, doc):
        if self.w.sweep and doc["failed"] != 0:
            return f"{doc['failed']} sweep cells failed"
        for label, results, info in self.cells(doc):
            if info.get("status", "ok") != "ok":
                return f"{label} status {info['status']}"
            if info.get("all_flows_completed", "true") != "true":
                return f"{label} left flows incomplete"
            if results.get("invariants.violations", 0) != 0:
                return f"{label} has invariant violations"
        return ""

    def deterministic(self, doc):
        """Every result that must repeat exactly, keyed by (cell, name)."""
        det = {}
        for label, results, info in self.cells(doc):
            for k, v in results.items():
                if not k.startswith("profile."):
                    det[(label, k)] = v
            if "digest" in info:
                det[(label, "digest")] = info["digest"]
        return det

    def results_sum(self, name):
        return sum(v for (_, k), v in (self.reference or {}).items() if k == name)

    def traced_pass(self, parent):
        """Back to back, so they see the same machine speed: a plain run, a
        profiled run, a run with invariants off, and a run with the digest
        flipped (off for regress-sweep, on elsewhere)."""
        plain = self.run("plain", parent)
        extra = ("profile=1",)
        cells = self.dir / "cells"
        if self.w.sweep:
            cells.mkdir(exist_ok=True)
            for f in cells.glob("*.json"):
                f.unlink()
            extra += (f"sweep_manifest_dir={cells}",)
        traced = self.run("traced", parent, extra)
        inv0 = self.run("inv0", parent, ("invariants=0",),
                        ("invariants.", "sim.events_executed"))
        flipped = self.run("digest", parent, ("digest=0" if self.w.sweep else "digest=1",),
                           ("digest",))
        if None in (plain, traced, inv0, flipped):
            return
        if self.w.sweep:
            profiles = [json.loads(f.read_text())["profile"]
                        for f in sorted(cells.glob("*.json"))]
        else:
            profiles = [traced[1]["profile"]]
        digest_doc = traced[1] if self.w.sweep else flipped[1]
        self.digests = [info["digest"] for _, _, info in self.cells(digest_doc)]
        self.passes.append({"plain": plain, "traced": traced, "inv0": inv0,
                            "flipped": flipped, "profiles": profiles,
                            "depth": max(p["kernel"]["max_heap_depth"] for p in profiles)})

    def run_probe(self):
        depth = max(p["depth"] for p in self.passes)
        tokens = [*self.w.probe, f"depth={depth}"]
        if self.quick:
            tokens += ["scale=0.05", "reps=1"]
        span = SPANS.open("pmsb_probe", self.span)
        code, out, err = run_process([str(BUILD / "pmsb_probe"), *tokens], self.timeout())
        SPANS.close(span)
        if not self.count(code == 0, f"probe: {err.strip()}"):
            raise BenchError(f"[{self.name}] probe failed")
        self.probe = json.loads(out)
        SPANS.graft(self.probe.pop("spans"), span)

    # --- metrics ------------------------------------------------------------

    def speed_factor(self):
        """What puts this invocation's times at the reference host's speed."""
        if not self.refs:
            raise BenchError(f"[{self.name}] no successful pmsb_ref run")
        return REF_NOMINAL_S / min(self.refs)

    def raw_end_to_end(self):
        return {"wall_s": self.walls, "cpu_s": self.cpus, "setup_s": self.setups,
                "peak_rss_mb": self.rss}

    def end_to_end(self):
        """Every sample, times scaled by speed_factor()."""
        f = self.speed_factor()
        return {k: v if k == "peak_rss_mb" else [x * f for x in v]
                for k, v in self.raw_end_to_end().items()}

    def per_layer(self):
        """Every per-layer metric: medians over traced passes, plus probes."""
        if not self.passes or self.probe is None:
            raise BenchError(f"[{self.name}] no successful traced pass")
        cal = self.probe["calibration"]
        per_pass = [self.pass_metrics(p, cal) for p in self.passes]
        out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        ecn = self.probe["ecn"]
        out.update({
            "sim.events": self.results_sum("sim.events_executed"),
            "sim.heap.ns_per_event": self.probe["sim"]["heap_ns_per_event"],
            "sim.calendar.ns_per_event": self.probe["sim"]["calendar_ns_per_event"],
            "sched.isolated.ns_per_op": self.probe["sched"]["ns_per_op"],
            "ecn.pmsb.ns": ecn["pmsb"],
            "ecn.perport.ns": ecn["perport"],
            "ecn.perqueue.ns": ecn["perqueue"],
            "ecn.mqecn.ns": ecn["mqecn"],
            "ecn.tcn.ns": ecn["tcn"],
            "faults.evaluations": self.results_sum("invariants.evaluations"),
            "regress.digest.ns_per_event": self.probe["digest"]["ns_per_event"],
            "trace.scope_cost_ns": cal["scope_cost_ns"],
        })
        return out

    def pass_metrics(self, p, cal):
        """Per-layer metrics of one traced pass; every ratio is against the
        pass's own plain run."""
        st = scope_stats(p["profiles"], cal)
        layers = st["layers"]
        calls = lambda layer: layers.get(layer, [0, 0.0])[0]
        self_ns = lambda layer: layers[layer][1] / calls(layer) if calls(layer) else 0.0
        plain = p["plain"][0]["wall_s"]
        inner = self.inner_wall(p["plain"][1])
        traced_inner = self.inner_wall(p["traced"][1])
        return {
            "sim.events_per_s": self.results_sum("sim.events_executed") / inner,
            "sim.max_queue_depth": p["depth"],
            "port.packets": calls("port.handle"),
            "port.handle.self_ns": self_ns("port.handle"),
            "port.transmit.self_ns": self_ns("port.transmit"),
            "sched.enqueue.self_ns": self_ns("sched.enqueue"),
            "sched.dequeue.self_ns": self_ns("sched.dequeue"),
            "ecn.decisions": calls("ecn.should_mark"),
            "ecn.should_mark.self_ns": self_ns("ecn.should_mark"),
            "transport.segments": calls("transport.send"),
            "transport.send.self_ns": self_ns("transport.send"),
            "transport.ack.self_ns": self_ns("transport.ack"),
            "faults.share": 1.0 - p["inv0"][0]["wall_s"] / plain,
            # Only regress-sweep runs with the digest on; elsewhere it costs 0.
            "regress.share": 1.0 - p["flipped"][0]["wall_s"] / plain if self.w.sweep else 0.0,
            "sweep.parallel_efficiency": inner / (self.jobs * plain),
            "trace.overhead_ratio": traced_inner / inner,
            "trace.calibrated_overhead_ratio": (traced_inner - st["probe_cost_s"]) / inner,
            "trace.attributed_frac": st["attributed_frac"],
        }

    def summary(self, spec, per_layer):
        """The workload's entry in the --out file."""
        samples, raw = self.end_to_end(), self.raw_end_to_end()
        e2e = {}
        for m in spec["end_to_end"]:
            s = samples[m["name"]]
            q1, q3 = quartiles(s) if s else (None, None)
            e2e[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                              "value": reported(m["name"], s) if s else None,
                              "median": statistics.median(s) if s else None,
                              "q1": q1, "q3": q3, "n": len(s), "samples": s,
                              "raw_samples": raw[m["name"]]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        return {
            "end_to_end": e2e,
            "error_rate": self.failed / max(self.attempted, 1),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "host": {"ref_samples": self.refs, "speed_factor": self.speed_factor()},
            "per_layer": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in (per_layer or {}).items()},
            "calibration": self.probe["calibration"] if self.probe else None,
            "digests": self.digests,
        }


def without(det, prefixes):
    return {k: v for k, v in det.items() if not k[1].startswith(tuple(prefixes))}


# --- reporting --------------------------------------------------------------

def print_metric(workload, name, value, unit, note=""):
    print(f"{workload:18s} {name:34s} {value:14.6g} {unit:6s} {note}".rstrip())


def print_end_to_end(bench, spec):
    samples = bench.end_to_end()
    for m in spec["end_to_end"]:
        s = samples[m["name"]]
        if s:
            q1, q3 = quartiles(s)
            print_metric(bench.name, m["name"], reported(m["name"], s), m["unit"],
                         f"n {len(s)}; min {min(s):.6g}, median {statistics.median(s):.6g}, "
                         f"q1 {q1:.6g}, q3 {q3:.6g}")
    print_metric(bench.name, "error_rate", bench.failed / max(bench.attempted, 1), "ratio",
                 f"{bench.failed} of {bench.attempted} processes failed")
    print(f"{bench.name:18s} info host: fastest pmsb_ref {min(bench.refs):.6g} s of "
          f"{len(bench.refs)}, times scaled by {bench.speed_factor():.6g}")


def print_per_layer(bench, spec, per_layer):
    for m in spec["per_layer"]:
        print_metric(bench.name, m["name"], per_layer[m["name"]], m["unit"])
    for d in bench.digests:
        print(f"{bench.name:18s} info digest {d}")


def selected(spec, key, values):
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}


def write_out(path, seed, quick, tally, summaries):
    SPANS.close(SPANS.root)
    doc = {"schema": "pmsb.perf/1", "seed": seed, "quick": quick,
           "host": {"cpus": os.cpu_count(), "platform": sys.platform},
           "correct": tally.failed == 0, "attempted": tally.attempted,
           "failed": tally.failed, "workloads": summaries, "spans": SPANS.spans}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {path}")


# --- modes ------------------------------------------------------------------

def one_workload(args, spec, tally):
    """One workload for about --seconds (the --workload mode)."""
    started = time.monotonic()
    bench = Bench(args.workload, args.seed, args.quick, tally, started + PROC_CAP_S)
    bench.prepare()
    bench.warm_up()
    deadline = time.monotonic() + args.seconds
    cap = started + WORK_CAP_S
    min_reps = 1 if args.quick else MIN_REPS
    per_layer = None
    if args.trace == 0:
        while True:
            t0 = time.monotonic()
            bench.rep(bench.span)
            now = time.monotonic()
            if now > cap or (len(bench.walls) >= min_reps and now + (now - t0) > deadline):
                break
        if not bench.walls or not bench.setups:
            raise BenchError(f"[{bench.name}] no successful timed run")
        metrics = selected(spec, "end_to_end",
                           {k: reported(k, v) for k, v in bench.end_to_end().items()})
        print_end_to_end(bench, spec)
    else:
        while True:
            t0 = time.monotonic()
            bench.traced_pass(bench.span)
            now = time.monotonic()
            if now > cap or (bench.passes and now + (now - t0) + PROBE_EST_S > deadline):
                break
        if not bench.passes:
            raise BenchError(f"[{bench.name}] no successful traced pass")
        bench.run_probe()
        per_layer = bench.per_layer()
        metrics = selected(spec, "per_layer", per_layer)
        print_per_layer(bench, spec, per_layer)
    SPANS.close(bench.span)
    if args.out:
        write_out(args.out, args.seed, args.quick, tally,
                  {bench.name: bench.summary(spec, per_layer)})
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def every_workload(args, spec, tally):
    """Full set: warm-up round, interleaved timed reps, then traced passes."""
    benches = [Bench(name, args.seed, args.quick, tally, float("inf")) for name in WORKLOADS]
    for b in benches:
        b.prepare()
    for b in benches:
        b.run("warmup", b.span)
    for _ in range(1 if args.quick else TIMED_REPS):
        for b in benches:
            b.rep(b.span)
    summaries = {}
    for b in benches:
        per_layer = None
        b.traced_pass(b.span)
        if b.passes:
            b.run_probe()
            per_layer = b.per_layer()
        SPANS.close(b.span)
        print_end_to_end(b, spec)
        if per_layer:
            print_per_layer(b, spec, per_layer)
        summaries[b.name] = b.summary(spec, per_layer)
    out = args.out or str(RUNS / f"perf-seed{args.seed}.json")
    write_out(out, args.seed, args.quick, tally, summaries)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "out": out}))


# An absolute floor under a metric's relative bound, in the metric's unit: a
# set-up of a few ms moves by more than 10% on process start-up jitter alone.
ABS_FLOOR = {"setup_s": 0.010}


def iqr_share(samples):
    q1, q3 = quartiles(samples)
    return (q3 - q1) / statistics.median(samples)


def gap(samples):
    """How well the fastest sample is pinned down: the relative distance to
    the second fastest."""
    first, second = sorted(samples)[:2]
    return (second - first) / first


# Each basis: its name, its statistic, its noise measure, and the largest
# noise (given the bound) at which it still gives a verdict.
BASES = (("median", statistics.median, iqr_share, lambda bound: bound),
         ("fastest", min, gap, lambda bound: bound / 2))


def judge(a, b, bound):
    """Verdicts for B against A on one metric, one (basis, A, B, worse by,
    noise, verdict) per basis. A verdict is `unresolved` when a side has
    fewer than 3 samples, or when a side's noise is over the basis's limit
    and the two sides' samples overlap. When every B sample is above every A
    sample, or every one below, the verdict follows the difference whatever
    the noise, in both directions."""
    separated = min(b) > max(a) or max(b) < min(a)
    out = []
    for basis, stat, noise_of, limit in BASES:
        va, vb = stat(a), stat(b)
        worse = (vb - va) / va
        noise = max(noise_of(a), noise_of(b)) if min(len(a), len(b)) >= 3 else float("nan")
        if noise != noise or (noise > limit(bound) and not separated):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSED"
        else:
            verdict = "better" if -worse > bound else "ok"
        out.append((basis, va, vb, worse, noise, verdict))
    return out


def overall(verdicts):
    """REGRESSED when either basis says so; otherwise the first basis that
    resolves; `unresolved` when neither does."""
    vs = [v[-1] for v in verdicts]
    if "REGRESSED" in vs:
        return "REGRESSED"
    return next((v for v in vs if v != "unresolved"), "unresolved")


def compare(path_a, path_b):
    """Prints each basis's verdict and the overall one per workload and
    end-to-end metric. Exits 1 when any metric REGRESSED (error_rate on any
    increase), else 3 when any is unresolved, else 0."""
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    finals = []
    print(f"{'workload':18s} {'metric':12s} {'basis':8s} {'A':>11s} {'B':>11s} "
          f"{'worse by':>9s} {'bound':>6s} {'noise':>7s}  {'verdict':11s} overall")
    for name in [n for n in a if n in b]:
        for m in spec["end_to_end"]:
            sa = a[name]["end_to_end"][m["name"]]["samples"]
            sb = b[name]["end_to_end"][m["name"]]["samples"]
            if not sa or not sb:
                print(f"{name:18s} {m['name']:12s} no samples{'':55s} REGRESSED")
                finals.append("REGRESSED")
                continue
            bound = max(m["bound"], ABS_FLOOR.get(m["name"], 0.0) / statistics.median(sa))
            verdicts = judge(sa, sb, bound)
            finals.append(overall(verdicts))
            for i, (basis, va, vb, worse, noise, verdict) in enumerate(verdicts):
                last = finals[-1] if i == len(verdicts) - 1 else ""
                noise = f"{noise:7.1%}" if noise == noise else f"{'n<3':>7s}"
                print(f"{name:18s} {m['name']:12s} {basis:8s} {va:11.6g} {vb:11.6g} "
                      f"{worse:+9.1%} {bound:6.1%} {noise}  {verdict:11s} {last}")
        ea, eb = a[name]["error_rate"], b[name]["error_rate"]
        finals.append("REGRESSED" if eb > ea else "ok")
        print(f"{name:18s} {'error_rate':12s} {'':8s} {ea:11.6g} {eb:11.6g} {'':9s} "
              f"{'+0':>6s} {'':7s}  {finals[-1]:11s} {finals[-1]}")
    if "REGRESSED" in finals:
        return 1
    return 3 if "unresolved" in finals else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: perf/run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--quick", action="store_true", help="1 rep, small sizes")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child group is killed first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tally = Tally()
    try:
        spec = load_spec()
        build()
        if args.workload:
            one_workload(args, spec, tally)
        else:
            every_workload(args, spec, tally)
    except BenchError as e:
        log(f"perf/run.py: {e}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
