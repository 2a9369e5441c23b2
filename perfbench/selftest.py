#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, in order:
  1. median() and quartiles() agree with the statistics module;
  2. host times are scaled to the reference host speed, and only by
     the reference chunks of the measured passes;
  3. the correctness gate fails a corrupted expected digest, a repeat
     that differs, an unbalanced span tracker and an engine crash;
  4. on every workload, the traced run leaves every deterministic
     count identical to the untraced run, each driver's call count
     equals the captured stream length, every per-layer metric is
     printed (a zero host timing only with the reason its layer is
     absent), and a corrupted expected digest makes error_rate
     non-zero on the engine's real output.

Takes a few minutes: every workload runs at its benchmark scale.

Exit code 0 when every check passes, 1 otherwise.
"""

import os
import random
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def test_statistics():
    rng = random.Random(1)
    worst = 0.0
    for n in range(2, 40):
        for _ in range(20):
            v = [rng.uniform(0.5, 2.0) for _ in range(n)]
            got = run.quartiles(v)
            want = statistics.quantiles(v, n=4)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
            worst = max(worst, abs(run.median(v) - statistics.median(v)))
    check(worst < 1e-12, "median/quartiles match statistics (max err %g)"
          % worst)
    check(run.median([3, 1, 2]) == 2 and run.median([4, 1, 3, 2]) == 2.5,
          "median of odd and even counts")
    check(run.quartiles([1, 2, 3, 4, 5]) == (1.5, 3.0, 4.5),
          "quartiles of 1..5")


def fake_run(point, pass_no, digest="00aa", opened=5, closed=5):
    return {"type": "run", "point": point, "pass": pass_no,
            "wall_s": 1.0, "cpu_s": 1.0, "cycles": 100,
            "instructions": 50, "events": 10, "fast_forwarded": 0,
            "cores": 1, "digest": digest, "spans_opened": opened,
            "spans_closed": closed, "span_queueing": 0,
            "span_latency": 0, "trace_events": 0,
            "telemetry_intervals": 0}


def test_reference_scaling():
    pts = ["a/x", "b/y"]
    lines = [fake_run(p, i) for i in range(3) for p in pts]
    lines += [{"type": "setup", "point": p, "pass": i, "s": 1e-3}
              for i in range(3) for p in pts]
    nominal = run.REFERENCE_NOMINAL_S
    # The warm-up pass's reference chunks are left out.
    lines += [{"type": "ref", "pass": 0, "s": 100 * nominal}]
    lines += [{"type": "ref", "pass": i, "s": s * nominal}
              for i, s in ((1, 1.5), (1, 2.5), (2, 2.0), (2, 2.0))]
    lines.append({"type": "end", "peak_rss_kb": 1024})
    m, info = run.end_to_end_metrics(lines)
    check(abs(m["wall_s"]["value"] - 1.0) < 1e-12 and
          info["pass_walls"] == [2.0, 2.0],
          "a host at half the reference speed halves wall_s (raw 2 s)")
    check(abs(m["setup_s"]["value"] - 1e-3) < 1e-15,
          "set-up time is scaled by the same host speed")
    check(m["sim_cycles_per_s"]["value"] == 200.0,
          "throughput is per reference-speed second")
    check(run.end_to_end_metrics(lines[:-5] + lines[-1:]) is None,
          "no reference chunk in the measured passes: no metrics")


def test_gate():
    pts = ["a/x", "b/y"]
    good = [fake_run(p, i) for i in range(3) for p in pts]
    good.append({"type": "end", "peak_rss_kb": 1})
    exp = {p: {"digest": "00aa", "cycles": 100, "instructions": 50,
               "events": 10} for p in pts}
    att, failed, _ = run.gate(good, 0, pts, exp)
    check(att == 6 and failed == 0, "gate passes clean runs (6/0)")

    bad_exp = dict(exp)
    bad_exp["b/y"] = dict(exp["b/y"], digest="ffff")
    att, failed, _ = run.gate(good, 0, pts, bad_exp)
    check(failed == 3 and failed / att > 0,
          "corrupted expected digest fails every run of its point")

    drift = list(good)
    drift[2] = fake_run("a/x", 1, digest="00ab")
    _, failed, _ = run.gate(drift, 0, pts, None)
    check(failed == 1, "a repeat that differs from the first run fails")

    leak = list(good)
    leak[0] = fake_run("a/x", 0, opened=6, closed=5)
    _, failed, _ = run.gate(leak, 0, pts, None)
    check(failed >= 1, "an unbalanced span tracker fails")

    crashed = good[:3]
    att, failed, _ = run.gate(crashed, -6, pts, None)
    check(failed == 1 and att == 4, "an engine crash counts as a failure")


def test_engine(engine):
    for w in run.WORKLOADS:
        plain, _, pinfo = run.measure(engine, w, 42, 0, False, None)
        check(plain["correct"], "%s: end-to-end run is correct %s"
              % (w, pinfo["reasons"] or ""))
        res, notes, info = run.measure(engine, w, 42, 0, True, None)
        check(res["correct"], "%s: traced run passes the gate and the "
              "driver self-checks %s" % (w, info["reasons"] or ""))
        lines = info["lines"]
        runs = {l["point"]: l for l in pinfo["lines"]
                if l.get("type") == "run" and l["pass"] == 0}
        same = bool(runs)
        for l in lines:
            if l.get("type") in ("untraced", "traced"):
                r = runs.get(l["point"])
                same = same and r is not None and all(
                    l[k] == r[k] for k in ("digest", "cycles",
                                           "instructions", "events"))
        check(same, "%s: traced run keeps every deterministic count of "
              "the untraced run" % w)
        layers = [l for l in lines if l.get("type") == "layer"]
        check(bool(layers) and all(l["calls"] == l["stream"]
                                   for l in layers),
              "%s: %d driver call counts equal their stream lengths"
              % (w, len(layers)))
        names = set(res["metrics"])
        check(names == set(n for n, _ in run.PER_LAYER),
              "%s: every per-layer metric printed" % w)
        # Host timings exist wherever their layer was driven; a zero
        # one must come with the reason its layer is absent.
        zero = [n for n, v in res["metrics"].items()
                if v["value"] == 0 and n not in notes
                and ("ns_per" in n or n.endswith("host_s"))]
        check(not zero, "%s: every zero host timing is marked absent %s"
              % (w, zero or ""))

        # The real outputs against a corrupted expected digest:
        # error_rate must turn non-zero.
        exp = {p: {k: r[k] for k in ("digest", "cycles", "instructions",
                                     "events")}
               for p, r in runs.items()}
        ok_att, ok_failed, _ = run.gate(pinfo["lines"], 0, list(exp), exp)
        exp[sorted(exp)[0]]["digest"] = "0" * 16
        att, failed, _ = run.gate(pinfo["lines"], 0, list(exp), exp)
        check(ok_failed == 0 and failed > 0,
              "%s: corrupted expected digest gives error_rate %.2f "
              "(0 with the true digest)" % (w, failed / att))


def main():
    test_statistics()
    test_reference_scaling()
    test_gate()
    engine = run.build_engine()
    check(engine is not None, "engine builds")
    if engine is not None:
        test_engine(engine)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
