#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer simulator throughput.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the engine (perfbench/CMakeLists.txt, Release) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs
one workload in one engine process:

  --trace 0  end-to-end: passes over the workload's points until
             --seconds have gone; prints every end-to-end metric,
             host times at the reference host speed (reference.hh).
  --trace 1  per-layer: one untraced pass, a traced pass (memtrace
             capture + spans) and the per-layer drivers; prints every
             per-layer metric.

Every run is checked (see gate()): a point fails when the engine
crashes on it, a repeat or the traced run differs from the first run,
its stat-dump digest differs from perfbench/expected.json for the
seed, or its span tracker is unbalanced. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --record-expected <seed>...

re-records expected.json (after a deliberate modelling change).

Exit codes: 0 ok; 1 a point failed; 2 usage, build or engine-start
failure (no result line).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKLOADS = ("regular", "irregular", "tenants-observed")
ENGINE_TIMEOUT_S = 170
# Seconds one host-speed reference chunk (reference.hh) is defined to
# take: host-time metrics are reported at that host speed. About the
# chunk's mean on the development host, a 4-vCPU Intel Xeon VM.
REFERENCE_NOMINAL_S = 0.025

END_TO_END = (
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_insts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
)

STALLS = ("tlb_miss", "walker_structural", "l2tlb", "l1_miss", "dram",
          "interconnect", "reconvergence")

# Per-layer metrics in print order: (name, unit). The *_host_s rows are
# driver ns/call times the real run's call count.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.ff_frac", "ratio"),
    ("sim.eventq.ns_per_event", "ns"),
    ("sim.eventq.host_s", "s"),
    ("gpu.idle_frac", "ratio"),
    ("gpu.residual_host_s", "s"),
    ("gpu.mem_instrs", "count"),
    ("gpu.page_divergence_mean", "pages"),
    ("gpu.lines_per_instr_mean", "lines"),
    ("gpu.tlb_bounces", "count"),
    ("gpu.coalescer.ns_per_call", "ns"),
    ("gpu.coalescer.host_s", "s"),
) + tuple(("gpu.stall.%s_frac" % s, "ratio") for s in STALLS) + (
    ("mmu.tlb.lookups", "count"),
    ("mmu.tlb.hit_ratio", "ratio"),
    ("mmu.tlb.ns_per_lookup", "ns"),
    ("mmu.tlb.host_s", "s"),
    ("mmu.ptw.walks", "count"),
    ("mmu.ptw.refs_issued", "count"),
    ("mmu.ptw.refs_eliminated_ratio", "ratio"),
    ("mmu.ptw.pwc_hit_ratio", "ratio"),
    ("mmu.ptw.latency_p50", "cycles"),
    ("mmu.ptw.latency_p95", "cycles"),
    ("mmu.ptw.ns_per_walk", "ns"),
    ("mmu.ptw.host_s", "s"),
    ("mmu.l2tlb.hit_ratio", "ratio"),
    ("mmu.l2tlb.mshr_merges", "count"),
    ("mmu.l2tlb.mshr_bypasses", "count"),
    ("mmu.l2tlb.ns_per_access", "ns"),
    ("mmu.l2tlb.host_s", "s"),
    ("mmu.iommu.lookups", "count"),
    ("mmu.iommu.hit_ratio", "ratio"),
    ("mmu.iommu.merged_walks", "count"),
    ("mmu.walk_queue_frac", "ratio"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_ratio", "ratio"),
    ("mem.l1.mshr_merges", "count"),
    ("mem.l1.mshr_stalls", "count"),
    ("mem.l1.miss_latency_p95", "cycles"),
    ("mem.l1.ns_per_access", "ns"),
    ("mem.l1.host_s", "s"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.hit_ratio", "ratio"),
    ("mem.dram.accesses", "count"),
    ("mem.walk.l2_hit_ratio", "ratio"),
    ("mem.system.ns_per_access", "ns"),
    ("mem.system.host_s", "s"),
    ("vm.faults", "count"),
    ("vm.shootdowns", "count"),
    ("vm.shootdown_entries", "count"),
    ("vm.context_switches", "count"),
    ("vm.coalesces", "count"),
    ("vm.walk.ns_per_walk", "ns"),
    ("workloads.addrgen.ns_per_call", "ns"),
    ("workloads.addrgen.host_s", "s"),
    ("workloads.build_s", "s"),
    ("obs.overhead_s", "s"),
    ("obs.trace_events", "count"),
    ("obs.spans", "count"),
    ("obs.telemetry_intervals", "count"),
    ("bench.trace_overhead_s", "s"),
)

# Driven layers: (driver, ns-per-call metric, host-seconds metric). The
# host-seconds rows add up to the run's wall time apart from
# gpu.residual_host_s. vm.walk has none: the walkers call
# PageTable::walk, so its time is inside mmu.ptw.
DRIVEN = (
    ("gpu.coalescer", "gpu.coalescer.ns_per_call", "gpu.coalescer.host_s"),
    ("mmu.tlb", "mmu.tlb.ns_per_lookup", "mmu.tlb.host_s"),
    ("mmu.ptw", "mmu.ptw.ns_per_walk", "mmu.ptw.host_s"),
    ("mmu.l2tlb", "mmu.l2tlb.ns_per_access", "mmu.l2tlb.host_s"),
    ("mem.l1", "mem.l1.ns_per_access", "mem.l1.host_s"),
    ("mem.system", "mem.system.ns_per_access", "mem.system.host_s"),
    ("sim.eventq", "sim.eventq.ns_per_event", "sim.eventq.host_s"),
    ("workloads.addrgen", "workloads.addrgen.ns_per_call",
     "workloads.addrgen.host_s"),
    ("vm.walk", "vm.walk.ns_per_walk", None),
)
HOST_METRICS = tuple(h for _, _, h in DRIVEN if h)


# --------------------------------------------------------------------
# Statistics helpers (checked against the statistics module by
# perfbench/selftest.py).

def median(values):
    """Median of a non-empty sequence."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no values")
    n = len(v)
    mid = n // 2
    return v[mid] if n % 2 else (v[mid - 1] + v[mid]) / 2.0


def quartiles(values):
    """(Q1, Q2, Q3) exactly as statistics.quantiles(values, n=4) gives
    them (its default 'exclusive' method); needs two or more values."""
    v = sorted(values)
    ld = len(v)
    if ld < 2:
        raise ValueError("quartiles need at least two values")
    n, m = 4, ld + 1
    out = []
    for i in range(1, n):
        j = min(max(i * m // n, 1), ld - 1)
        delta = i * m - j * n
        out.append((v[j - 1] * (n - delta) + v[j] * delta) / n)
    return tuple(out)


# --------------------------------------------------------------------
# Build and engine invocation.

def build_engine():
    """Configure and build the engine; returns its path or None."""
    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n"
                                 % " ".join(cmd[:2]))
                return None
    return os.path.join(build_dir, "perfbench_engine")


def run_engine(engine, args):
    """Run the engine; returns (parsed lines, exit code, wall seconds)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([engine] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ENGINE_TIMEOUT_S)
        out, err, rc = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        err, rc = "engine timed out", -1
    wall = time.monotonic() - t0
    lines = []
    for raw in out.splitlines():
        try:
            lines.append(json.loads(raw))
        except ValueError:
            pass
    if rc != 0 and err:
        sys.stderr.write(err[-2000:])
    return lines, rc, wall


# --------------------------------------------------------------------
# Correctness gate.

def load_expected():
    try:
        with open(EXPECTED_PATH) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def expected_for(expected, workload, seed):
    """Expected point records of (workload, seed), or None."""
    return expected.get("seeds", {}).get(str(seed), {}).get(workload)


def gate(lines, exit_code, points, expected_points):
    """Check every simulated point; returns (attempted, failed,
    reasons). @p points are the workload's point names; a record in
    @p expected_points (may be None) pins digest, cycles,
    instructions and events."""
    reasons = []
    attempted = 0
    failed = 0
    first = {}
    results = [l for l in lines
               if l.get("type") in ("run", "untraced", "traced")]
    errors = [l for l in lines if l.get("type") == "error"]
    for r in results:
        attempted += 1
        name = r["point"]
        bad = []
        ref = first.setdefault(name, r)
        for key in ("digest", "cycles", "instructions", "events"):
            if r[key] != ref[key]:
                bad.append("%s %s differs from the first run (%s)"
                           % (key, r[key], ref[key]))
        if expected_points is not None:
            exp = expected_points.get(name)
            if exp is None:
                bad.append("no expected record")
            else:
                for key in ("digest", "cycles", "instructions", "events"):
                    if r[key] != exp[key]:
                        bad.append("%s %s != expected %s"
                                   % (key, r[key], exp[key]))
        if r["spans_opened"] != r["spans_closed"]:
            bad.append("spans opened %d != closed %d"
                       % (r["spans_opened"], r["spans_closed"]))
        if r["cycles"] <= 0 or r["instructions"] <= 0:
            bad.append("empty run")
        if bad:
            failed += 1
            reasons.append("%s: %s" % (name, "; ".join(bad)))
    for e in errors:
        attempted += 1
        failed += 1
        reasons.append("%s: %s" % (e.get("point", "engine"),
                                   e.get("what", "error")))
    ended = any(l.get("type") == "end" for l in lines)
    if exit_code != 0 or not ended:
        # The engine died mid-run: the point it was on is a failure,
        # and so is a workload that produced nothing at all.
        attempted += 1
        failed += 1
        reasons.append("engine exited with %s before finishing"
                       % exit_code)
    missing = [p for p in points if p not in first]
    if ended and exit_code == 0 and missing:
        attempted += len(missing)
        failed += len(missing)
        reasons.append("points never ran: %s" % ", ".join(missing))
    return attempted, failed, reasons


def layer_self_checks(lines):
    """Trace-mode checks beyond gate(): driver call counts equal the
    stream lengths, the capture holds one record per memory
    instruction of the run, and arming the observers leaves the
    simulation unchanged. Returns a list of failures."""
    bad = []
    mem_instrs = {}
    for l in lines:
        if l.get("type") == "untraced":
            counters, _ = stat_block(l["stats"])
            mem_instrs[l["point"]] = sum_counter(counters, "mem.mem_instrs")
    for l in lines:
        t = l.get("type")
        if t == "layer" and l["calls"] != l["stream"]:
            bad.append("%s %s: %d calls for a %d-long stream"
                       % (l["point"], l["layer"], l["calls"], l["stream"]))
        if t == "traced" and l["accesses"] != mem_instrs.get(l["point"]):
            bad.append("%s: captured %d accesses, run issued %s memory "
                       "instructions" % (l["point"], l["accesses"],
                                         mem_instrs.get(l["point"])))
        if t == "capture" and l["accesses"] != l["mem_instrs"]:
            bad.append("%s: captured %d accesses of %d" % (
                l["point"], l["accesses"], l["mem_instrs"]))
    armed = {l["point"]: l for l in lines if l.get("type") == "untraced"}
    for l in lines:
        if l.get("type") != "unarmed":
            continue
        a = armed.get(l["point"])
        if a is None or any(a[k] != l[k] for k in ("cycles", "instructions",
                                                   "events")):
            bad.append("%s: arming the observers changed the simulation"
                       % l["point"])
    for l in lines:
        if l.get("type") == "layer" and l["layer"] == "gpu.coalescer":
            want = [x["accesses"] for x in lines
                    if x.get("type") in ("traced", "capture")
                    and x["point"] == l["point"]]
            if want and want[0] != l["calls"]:
                bad.append("%s: coalescer drove %d of %d captured "
                           "accesses" % (l["point"], l["calls"], want[0]))
    return bad


# --------------------------------------------------------------------
# Metrics.

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(lines):
    """End-to-end metrics over the measured passes (pass 0 is the
    warm-up, and so are the set-ups timed in a fresh process before
    it). Host times are at the reference host speed (reference.hh):
    raw seconds times REFERENCE_NOMINAL_S over the mean reference
    chunk, the chunks being timed between the points across the same
    minutes. wall_s is the mean over passes of a pass's summed point
    walls, so that simulation and reference time are both totals over
    the same stretch of host speed (a median of each can fall in
    different fast or slow periods); setup_s sums the per-point medians
    of the set-up samples."""
    runs = [l for l in lines if l.get("type") == "run" and l["pass"] > 0]
    points = []
    for r in runs:
        if r["point"] not in points:
            points.append(r["point"])
    passes = {}
    for r in runs:
        passes.setdefault(r["pass"], {})[r["point"]] = r
    complete = [p for _, p in sorted(passes.items())
                if len(p) == len(points)]
    refs = [l["s"] for l in lines if l.get("type") == "ref" and l["pass"] > 0]
    if not complete or not refs:
        return None
    speed = REFERENCE_NOMINAL_S / (sum(refs) / len(refs))
    walls = [sum(r["wall_s"] for r in p.values()) for p in complete]
    cycles = sum(r["cycles"] for r in complete[0].values())
    insts = sum(r["instructions"] for r in complete[0].values())
    wall = sum(walls) / len(walls) * speed
    setups = {}
    for l in lines:
        if l.get("type") == "setup" and l["pass"] > 0:
            setups.setdefault(l["point"], []).append(l["s"])
    rss = [l["peak_rss_kb"] for l in lines if l.get("type") == "end"]
    values = {
        "wall_s": wall,
        "sim_cycles_per_s": cycles / wall,
        "sim_insts_per_s": insts / wall,
        "setup_s": sum(median(v) for v in setups.values()) * speed,
        "peak_rss_mb": (rss[0] / 1024.0) if rss else 0.0,
        "sim_cycles": cycles,
    }
    info = {"pass_walls": walls,
            "pass_cpu": [sum(r["cpu_s"] for r in p.values())
                         for p in complete],
            "ref_mean_s": sum(refs) / len(refs), "ref_chunks": len(refs)}
    return {k: metric(values[k], u) for k, u in END_TO_END}, info


def stat_block(stats_json):
    """(counters, histograms) of a single-process or multi-tenant
    stat dump."""
    inner = stats_json.get("stats", {})
    return inner.get("counters", {}), inner.get("histograms", {})


def per_core(suffix):
    """Pattern of the per-core stat names core<N>.<suffix>."""
    return re.compile(r"^core\d+\." + re.escape(suffix) + "$")


def sum_counter(counters, suffix):
    """Sum of every per-core counter core<N>.<suffix>."""
    pat = per_core(suffix)
    return sum(v for k, v in counters.items() if pat.match(k))


def core_hists(hists, suffix):
    """Every per-core histogram core<N>.<suffix> of @p hists, which maps
    a stat name to the histograms of that name over the points."""
    pat = per_core(suffix)
    return [h for k, hs in hists.items() if pat.match(k) for h in hs]


def weighted(hs, field):
    """Count-weighted mean of a field over histograms (0 when empty)."""
    n = sum(h["count"] for h in hs)
    return sum(h["count"] * h[field] for h in hs) / n if n else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(lines, e2e_wall):
    """Per-layer metrics, plus notes naming the absent ones."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    notes = {}
    untraced = [l for l in lines if l.get("type") == "untraced"]
    traced = [l for l in lines if l.get("type") == "traced"]
    unarmed = [l for l in lines if l.get("type") == "unarmed"]
    layers = [l for l in lines if l.get("type") == "layer"]
    multi = bool(unarmed)

    C = {}
    H = {}
    calls = {}  # real-run call counts per driven layer
    for u in untraced:
        c, h = stat_block(u["stats"])
        for k, v in c.items():
            C[k] = C.get(k, 0) + v
        for k, v in h.items():
            H.setdefault(k, []).append(v)
    cycles = sum(u["cycles"] for u in untraced)
    wall = sum(u["wall_s"] for u in untraced)

    m["sim.events"] = sum(u["events"] for u in untraced)
    if multi:
        notes["sim.ff_frac"] = ("the multi-tenant slice loop does not "
                                "report fast-forwarded cycles")
    else:
        m["sim.ff_frac"] = ratio(sum(u["fast_forwarded"] for u in untraced),
                                 cycles)
    calls["sim.eventq"] = m["sim.events"]

    if multi:
        doc = untraced[0]["stats"]
        tenants = doc.get("tenants", [])
        cores = untraced[0]["cores"]
        m["gpu.idle_frac"] = ratio(sum(t["idle_cycles"] for t in tenants),
                                   cores * cycles)
        m["gpu.mem_instrs"] = sum(t["mem_instructions"] for t in tenants)
        l1_acc = sum(t["l1_accesses"] for t in tenants)
        m["mem.l1.accesses"] = l1_acc
        m["mem.l1.hit_ratio"] = ratio(sum(t["l1_hits"] for t in tenants),
                                      l1_acc)
        for k in ("faults", "shootdowns", "shootdown_entries",
                  "context_switches", "coalesces"):
            m["vm." + k] = doc.get(k, 0)
        transient = ("slice cores are transient in the multi-tenant run "
                     "and register no per-core stats")
        for name in ("gpu.page_divergence_mean",
                     "gpu.lines_per_instr_mean", "gpu.tlb_bounces",
                     "mem.l1.mshr_merges", "mem.l1.mshr_stalls",
                     "mem.l1.miss_latency_p95") + tuple(
                         "gpu.stall.%s_frac" % s for s in STALLS):
            notes[name] = transient
        for name in ("mmu.tlb.lookups", "mmu.tlb.hit_ratio"):
            notes[name] = "IOMMU design: no per-core L1 TLB"
        calls["gpu.coalescer"] = m["gpu.mem_instrs"]
        calls["mem.l1"] = l1_acc
        calls["mmu.tlb"] = C.get("iommu.tlb.accesses", 0)
        m["obs.overhead_s"] = wall - sum(u["wall_s"] for u in unarmed)
        m["obs.trace_events"] = untraced[0]["trace_events"]
        m["obs.spans"] = untraced[0]["spans_opened"]
        m["obs.telemetry_intervals"] = untraced[0]["telemetry_intervals"]
        queue = untraced[0]["span_queueing"]
        latency = untraced[0]["span_latency"]
    else:
        cores = sum(u["cores"] * u["cycles"] for u in untraced)
        m["gpu.idle_frac"] = ratio(sum_counter(C, "idle_cycles"), cores)
        m["gpu.mem_instrs"] = sum_counter(C, "mem.mem_instrs")
        m["gpu.tlb_bounces"] = sum_counter(C, "mem.tlb_bounces")
        m["gpu.page_divergence_mean"] = weighted(
            core_hists(H, "mem.page_divergence"), "mean")
        m["gpu.lines_per_instr_mean"] = weighted(
            core_hists(H, "mem.lines_per_instr"), "mean")
        stall = {s: sum(h["sum"] for h in core_hists(H, "stalls." + s))
                 for s in STALLS}
        total = sum(stall.values())
        for s in STALLS:
            m["gpu.stall.%s_frac" % s] = ratio(stall[s], total)
        m["mmu.tlb.lookups"] = sum_counter(C, "mmu.tlb.accesses")
        m["mmu.tlb.hit_ratio"] = ratio(sum_counter(C, "mmu.tlb.hits"),
                                       m["mmu.tlb.lookups"])
        m["mem.l1.accesses"] = sum_counter(C, "l1.accesses")
        m["mem.l1.hit_ratio"] = ratio(sum_counter(C, "l1.hits"),
                                      m["mem.l1.accesses"])
        m["mem.l1.mshr_merges"] = sum_counter(C, "l1.mshr_merges")
        m["mem.l1.mshr_stalls"] = sum_counter(C, "l1.mshr_stalls")
        m["mem.l1.miss_latency_p95"] = weighted(
            core_hists(H, "l1.miss_latency"), "p95")
        calls["gpu.coalescer"] = m["gpu.mem_instrs"] + m["gpu.tlb_bounces"]
        calls["mem.l1"] = m["mem.l1.accesses"]
        calls["mmu.tlb"] = (m["mmu.tlb.lookups"] +
                            C.get("iommu.tlb.accesses", 0))
        for name in ("vm.faults", "vm.shootdowns", "vm.shootdown_entries",
                     "vm.context_switches", "vm.coalesces"):
            notes[name] = ("single-process points map every page up "
                           "front and never unmap")
        for name in ("obs.overhead_s", "obs.trace_events", "obs.spans",
                     "obs.telemetry_intervals"):
            notes[name] = "observers are armed only on tenants-observed"
        queue = sum(t["span_queueing"] for t in traced)
        latency = sum(t["span_latency"] for t in traced)
    m["mmu.walk_queue_frac"] = ratio(queue, latency)

    # Page walkers: per-core pools plus the IOMMU's.
    def walkers(stat):
        return (sum_counter(C, "mmu.ptw." + stat) +
                C.get("iommu.ptw." + stat, 0))

    walks = walkers("walks")
    issued = walkers("refs_issued")
    elim = walkers("refs_eliminated")
    m["mmu.ptw.walks"] = walks
    m["mmu.ptw.refs_issued"] = issued
    m["mmu.ptw.refs_eliminated_ratio"] = ratio(elim, issued + elim)
    m["mmu.ptw.pwc_hit_ratio"] = ratio(walkers("pwc_hits"), issued)
    wl = (core_hists(H, "mmu.ptw.walk_latency") +
          H.get("iommu.ptw.walk_latency", []))
    m["mmu.ptw.latency_p50"] = weighted(wl, "p50")
    m["mmu.ptw.latency_p95"] = weighted(wl, "p95")
    calls["mmu.ptw"] = walks

    if "l2tlb.lookups" in C:
        m["mmu.l2tlb.hit_ratio"] = ratio(C["l2tlb.hits"], C["l2tlb.lookups"])
        m["mmu.l2tlb.mshr_merges"] = C["l2tlb.mshr_merges"]
        m["mmu.l2tlb.mshr_bypasses"] = C["l2tlb.mshr_bypasses"]
        calls["mmu.l2tlb"] = C["l2tlb.lookups"]
    else:
        for n in ("hit_ratio", "mshr_merges", "mshr_bypasses",
                  "ns_per_access", "host_s"):
            notes["mmu.l2tlb." + n] = "no shared L2 TLB in this workload"
    if "iommu.tlb.accesses" in C:
        m["mmu.iommu.lookups"] = C["iommu.tlb.accesses"]
        m["mmu.iommu.hit_ratio"] = ratio(C["iommu.tlb.hits"],
                                         C["iommu.tlb.accesses"])
        m["mmu.iommu.merged_walks"] = C.get("iommu.merged_walks", 0)
    else:
        for n in ("lookups", "hit_ratio", "merged_walks"):
            notes["mmu.iommu." + n] = "no IOMMU in this workload"

    m["mem.l2.accesses"] = C.get("mem.l2.accesses", 0)
    m["mem.l2.hit_ratio"] = ratio(C.get("mem.l2.hits", 0),
                                  m["mem.l2.accesses"])
    m["mem.dram.accesses"] = C.get("mem.dram.accesses", 0)
    m["mem.walk.l2_hit_ratio"] = ratio(C.get("mem.walk.l2_hits", 0),
                                       C.get("mem.walk.accesses", 0))
    calls["mem.system"] = m["mem.l2.accesses"]

    # Driver timings: call-weighted ns/call over the driven streams.
    ns = {}
    for layer in set(l["layer"] for l in layers):
        ls = [l for l in layers if l["layer"] == layer]
        n = sum(l["calls"] for l in ls)
        ns[layer] = ratio(sum(l["ns_per_call"] * l["calls"] for l in ls), n)
    calls["workloads.addrgen"] = sum(l["calls"] for l in layers
                                     if l["layer"] == "workloads.addrgen")
    host_total = 0.0
    for layer, ns_name, host_name in DRIVEN:
        if layer not in ns:
            continue
        m[ns_name] = ns[layer]
        if host_name and layer in calls:
            m[host_name] = ns[layer] * calls[layer] * 1e-9
            host_total += m[host_name]
    m["gpu.residual_host_s"] = wall - host_total
    setups = {}
    for l in lines:
        if l.get("type") == "setup":
            setups.setdefault(l["point"], []).append(l["s"])
    m["workloads.build_s"] = sum(median(v) for v in setups.values())
    m["bench.trace_overhead_s"] = e2e_wall - wall
    return ({name: metric(m[name], unit) for name, unit in PER_LAYER},
            notes)


def span_summary(lines):
    """(name, count, total s, self s) per benchmark span name, by total.
    Self time is a span's duration minus what its children cover."""
    spans = [l for l in lines if l.get("type") == "span"]
    child = {}
    for sp in spans:
        child[sp["parent"]] = child.get(sp["parent"], 0.0) + (
            sp["end"] - sp["start"])
    agg = {}
    for sp in spans:
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        c, tot, slf = agg.get(name, (0, 0.0, 0.0))
        agg[name] = (c + 1, tot + dur, slf + dur - child.get(sp["id"], 0.0))
    return sorted(((n,) + v for n, v in agg.items()),
                  key=lambda r: -r[2])


# --------------------------------------------------------------------

def measure(engine, workload, seed, seconds, trace, expected_points):
    """Run one measurement; returns (result dict, notes, info).
    @p expected_points pins each point's outputs (None: repeats and
    the traced run are still compared with the first run)."""
    build_root = os.path.dirname(os.path.dirname(engine))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds),
            "--mode", "trace" if trace else "run",
            "--workdir", os.path.join(build_root, "work")]
    lines, rc, wall = run_engine(engine, args)
    meta = [l for l in lines if l.get("type") == "meta"]
    points = meta[0]["points"] if meta else []
    attempted, failed, reasons = gate(lines, rc, points, expected_points)
    if trace:
        extra = layer_self_checks(lines)
        if extra:
            failed += len(extra)
            attempted += len(extra)
            reasons += extra
    notes = {}
    info = {"reasons": reasons, "exit": rc, "lines": lines}
    metrics = {}
    try:
        if trace:
            metrics, notes = per_layer_metrics(lines, wall)
        else:
            got = end_to_end_metrics(lines)
            if got is not None:
                metrics, more = got
                info.update(more)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        failed += 1
        attempted += 1
        reasons.append("metrics: %r" % (e,))
    if not metrics:
        names = PER_LAYER if trace else END_TO_END
        metrics = {n: metric(0.0, u) for n, u in names}
    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, notes, info


def print_report(workload, seed, trace, result, notes, info):
    print("perfbench: workload=%s seed=%d mode=%s attempted=%d failed=%d "
          "error_rate=%.4f" % (workload, seed,
                               "per-layer" if trace else "end-to-end",
                               result["attempted"], result["failed"],
                               result["failed"] / result["attempted"]))
    for why in info.get("reasons", []):
        print("  FAIL %s" % why)
    if not trace and "pass_walls" in info:
        walls = info["pass_walls"]
        print("  host speed: reference chunk mean %.5f s over %d chunks; "
              "host times below are x %.4f (at %.3f s a chunk)" % (
                  info["ref_mean_s"], info["ref_chunks"],
                  REFERENCE_NOMINAL_S / info["ref_mean_s"],
                  REFERENCE_NOMINAL_S))
        print("  raw passes=%d pass_wall_s=%s pass_cpu_s=%s" % (
            len(walls), " ".join("%.3f" % w for w in walls),
            " ".join("%.3f" % w for w in info["pass_cpu"])))
        if len(walls) >= 2:
            q1, q2, q3 = quartiles(walls)
            print("  raw pass wall over %d passes: mean %.3f s, median "
                  "%.3f s, quartiles %.3f-%.3f s" % (
                      len(walls), sum(walls) / len(walls), q2, q1, q3))
    m = result["metrics"]
    for name, val in m.items():
        print("  %-34s %16.6g %s%s" % (
            name, val["value"], val["unit"],
            "   (absent: %s)" % notes[name] if name in notes else ""))
    if trace:
        print("  host-time split (driver ns/call x real-run calls):")
        for name in HOST_METRICS:
            print("    %-30s %10.4f s" % (name, m[name]["value"]))
        print("    %-30s %10.4f s" % ("gpu.residual_host_s",
                                      m["gpu.residual_host_s"]["value"]))
        print("  benchmark spans (count, total s, self s):")
        for name, count, total, self_s in span_summary(info["lines"]):
            print("    %-30s %5d %10.4f %10.4f" % (name, count, total,
                                                   self_s))


def record_expected(engine, seeds):
    """Run every workload once per seed and write expected.json."""
    doc = {"about": "Expected deterministic outputs per (seed, workload, "
                    "point): FNV-1a 64 digest of the JSON stat dump, "
                    "simulated cycles, warp instructions and events. "
                    "Seed 42 is the baseline; the others are held out "
                    "for confirming claims.",
           "baseline_seed": seeds[0], "held_out_seeds": seeds[1:],
           "seeds": {}}
    for seed in seeds:
        per = {}
        for w in WORKLOADS:
            lines, rc, _ = run_engine(engine, [
                "--workload", w, "--seed", str(seed), "--seconds", "0",
                "--mode", "run"])
            if rc != 0:
                sys.stderr.write("perfbench: %s failed at seed %d\n"
                                 % (w, seed))
                return 1
            pts = {}
            for l in lines:
                if l.get("type") == "run" and l["pass"] == 0:
                    pts[l["point"]] = {k: l[k] for k in (
                        "digest", "cycles", "instructions", "events")}
            per[w] = pts
        doc["seeds"][str(seed)] = per
    with open(EXPECTED_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % EXPECTED_PATH)
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", type=int, nargs="+",
                    metavar="SEED")
    args = ap.parse_args(argv)
    if args.record_expected is None and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    engine = build_engine()
    if engine is None:
        return 2
    if args.record_expected is not None:
        return record_expected(engine, args.record_expected)

    result, notes, info = measure(engine, args.workload, args.seed,
                                  args.seconds, bool(args.trace),
                                  expected_for(load_expected(),
                                               args.workload, args.seed))
    if info["exit"] == 2:
        sys.stderr.write("perfbench: engine rejected its arguments\n")
        return 2
    print_report(args.workload, args.seed, bool(args.trace), result, notes,
                 info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
