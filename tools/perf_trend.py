#!/usr/bin/env python3
"""Diff two BENCH_*.json perf records and flag regressions.

Every bench binary writes a machine-readable record with --json=<path>
(see harness::Bench::writeJson): per-config simulated throughput
(opsPerMs), host kernel speed (eventsPerSec), an aggregate host
events/sec, and — for open-loop load points — per-OpKind tail-latency
percentiles. This tool compares a baseline record against a current
one and exits non-zero when a metric regresses beyond the threshold:

  - opsPerMs is simulated throughput: deterministic for a given commit,
    so any drop is a real behavioral/performance change.
  - eventsPerSec is host simulation speed: the metric the fast-kernel
    work optimizes, but noisy across machines, so it gets its own
    (typically looser) threshold.
  - p99Ns (open-loop configs only, i.e. records with a "load" object)
    is simulated tail latency: lower is better, so the regression
    direction is inverted — the gate fails when the current p99 EXCEEDS
    the baseline by more than the threshold.

Usage:
  perf_trend.py BASELINE.json CURRENT.json [--threshold 0.10]
                [--host-threshold 0.10] [--p99-threshold 0.10]
                [--allow-missing-baseline]
  perf_trend.py --self-test

CI wires this into the bench-perf job against the BENCH_*.json artifact
of the last successful run on main; --allow-missing-baseline keeps the
very first run (or a renamed bench) green. --self-test exercises the
gate logic on synthetic records and needs no files.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        rec = json.load(f)
    # Validate by schema, not by file name: a BENCH_*.json record is an
    # object with a bench name and a configs list. Records stamped with
    # "sanitizer" come from instrumented builds (-DSYNCRON_SANITIZE=...)
    # whose timings are meaningless as perf data — refuse them the same
    # way as a malformed record, so a sanitizer-job artifact can never
    # become a perf baseline.
    if not isinstance(rec, dict) or "bench" not in rec \
            or not isinstance(rec.get("configs"), list):
        raise ValueError("not a bench record (missing 'bench'/'configs')")
    if rec.get("sanitizer"):
        raise ValueError("sanitizer-instrumented record (%s); not usable "
                         "as perf data" % rec["sanitizer"])
    return rec


def fmt_delta(base, cur):
    if base <= 0:
        return "n/a"
    return "%+.1f%%" % ((cur - base) / base * 100.0)


def compare_metric(name, pairs, threshold, failures, higher_is_better=True):
    """pairs: list of (label, baseline_value, current_value).

    higher_is_better=False inverts the direction (latency metrics):
    the gate fails when the current value exceeds the baseline by more
    than the threshold instead of falling below it.
    """
    printed_header = False
    for label, base, cur in pairs:
        if base <= 0:
            continue
        delta = (cur - base) / base
        regressed = (delta < -threshold) if higher_is_better \
            else (delta > threshold)
        marker = ""
        if regressed:
            marker = "  << REGRESSION"
            failures.append(
                "%s '%s': %.3f -> %.3f (%s, threshold %s%.0f%%)"
                % (name, label, base, cur, fmt_delta(base, cur),
                   "-" if higher_is_better else "+", threshold * 100))
        if not printed_header:
            print("-- %s (fail %s %s%.0f%%)"
                  % (name,
                     "below" if higher_is_better else "above",
                     "-" if higher_is_better else "+", threshold * 100))
            printed_header = True
        print("  %-40s %12.3f %12.3f  %s%s"
              % (label, base, cur, fmt_delta(base, cur), marker))


def p99_pairs(base_cfgs, cur_cfgs, shared):
    """(label/op, baseline p99Ns, current p99Ns) for open-loop configs.

    Only configs carrying a "load" object participate: open-loop tail
    latency is a pure simulated quantity (deterministic per commit), so
    any change is a real protocol/performance change — closed-loop
    benches report percentiles for human inspection but their tails
    shift with workload re-tuning too often to gate on.
    """
    pairs = []
    for label in shared:
        bcfg, ccfg = base_cfgs[label], cur_cfgs[label]
        if "load" not in bcfg or "load" not in ccfg:
            continue
        bops = {e["op"]: e for e in bcfg.get("syncLatency", [])}
        cops = {e["op"]: e for e in ccfg.get("syncLatency", [])}
        for op in bops:
            if op in cops:
                pairs.append(("%s/%s" % (label, op),
                              bops[op].get("p99Ns", 0.0),
                              cops[op].get("p99Ns", 0.0)))
    return pairs


def run(argv):
    ap = argparse.ArgumentParser(
        description="diff two BENCH_*.json records, exit non-zero on "
                    "regression")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed opsPerMs regression "
                         "(fraction, default 0.10)")
    ap.add_argument("--host-threshold", type=float, default=0.10,
                    help="max allowed host events/sec regression "
                         "(fraction, default 0.10)")
    ap.add_argument("--p99-threshold", type=float, default=0.10,
                    help="max allowed open-loop p99 latency increase "
                         "(fraction, default 0.10)")
    ap.add_argument("--allow-missing-baseline", action="store_true",
                    help="exit 0 when the baseline file is absent")
    args = ap.parse_args(argv)

    try:
        base = load(args.baseline)
    except (OSError, ValueError) as e:
        # A record can be missing from the baseline artifacts for benign
        # reasons (very first CI run, a bench added by the current
        # change, a truncated artifact download): exit 0 with a notice
        # instead of a stack trace when the caller opted in.
        if args.allow_missing_baseline:
            print("perf_trend: no usable baseline record at '%s' (%s); "
                  "skipping comparison" % (args.baseline, e))
            return 0
        print("perf_trend: baseline '%s' unreadable: %s"
              % (args.baseline, e), file=sys.stderr)
        return 2
    try:
        cur = load(args.current)
    except (OSError, ValueError) as e:
        print("perf_trend: current record '%s' unreadable: %s"
              % (args.current, e), file=sys.stderr)
        return 2

    if base.get("bench") != cur.get("bench"):
        print("perf_trend: comparing different benches ('%s' vs '%s')"
              % (base.get("bench"), cur.get("bench")), file=sys.stderr)
        return 2

    base_cfgs = {c["label"]: c for c in base.get("configs", [])}
    cur_cfgs = {c["label"]: c for c in cur.get("configs", [])}
    shared = [l for l in base_cfgs if l in cur_cfgs]
    for l in base_cfgs:
        if l not in cur_cfgs:
            print("perf_trend: label '%s' only in baseline (renamed "
                  "config?)" % l)
    for l in cur_cfgs:
        if l not in base_cfgs:
            print("perf_trend: label '%s' is new (no baseline)" % l)

    failures = []

    print("== perf trend: %s (%d shared configs)"
          % (cur.get("bench"), len(shared)))
    compare_metric(
        "ops/ms (simulated)",
        [(l, base_cfgs[l].get("opsPerMs", 0.0),
          cur_cfgs[l].get("opsPerMs", 0.0)) for l in shared],
        args.threshold, failures)
    compare_metric(
        "events/sec (host, per config)",
        [(l, base_cfgs[l].get("eventsPerSec", 0.0),
          cur_cfgs[l].get("eventsPerSec", 0.0)) for l in shared],
        args.host_threshold, failures)
    compare_metric(
        "events/sec (host, aggregate)",
        [("<total>", base.get("host", {}).get("eventsPerSec", 0.0),
          cur.get("host", {}).get("eventsPerSec", 0.0))],
        args.host_threshold, failures)
    compare_metric(
        "p99 ns (open-loop, simulated)",
        p99_pairs(base_cfgs, cur_cfgs, shared),
        args.p99_threshold, failures, higher_is_better=False)

    if failures:
        print("\nperf_trend: %d regression(s):" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("\nperf_trend: OK (no metric regressed beyond threshold)")
    return 0


# ----------------------------------------------------------------------
# Self-test: synthetic records through the real entry point.
# ----------------------------------------------------------------------

def _record(bench="slo_curves", ops=100.0, p99=500.0, sanitizer=None,
            with_load=True):
    cfg = {"label": "SynCron/r0.4", "opsPerMs": ops,
           "eventsPerSec": 1e6,
           "syncLatency": [{"op": "lock_acquire", "count": 100,
                            "p50Ns": p99 / 2, "p99Ns": p99,
                            "p999Ns": p99 * 2}]}
    if with_load:
        cfg["load"] = {"ratePerUs": 0.4, "offered": 100, "issued": 100,
                       "dropped": 0, "queued": 0, "queueDelayTicks": 0}
    rec = {"bench": bench, "host": {"eventsPerSec": 1e6},
           "configs": [cfg]}
    if sanitizer:
        rec["sanitizer"] = sanitizer
    return rec


def self_test():
    import contextlib
    import io
    import os
    import tempfile

    checks = []

    def check(name, argv_records, expect_rc, extra_args=()):
        """Writes the records, runs the comparison, checks the rc."""
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, rec in enumerate(argv_records):
                p = os.path.join(d, "r%d.json" % i)
                if rec is not None:  # None = deliberately absent file
                    with open(p, "w") as f:
                        json.dump(rec, f)
                paths.append(p)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                rc = run(paths + list(extra_args))
            ok = rc == expect_rc
            checks.append((name, ok, rc, expect_rc, out.getvalue()))

    # Identical records pass.
    check("identical records pass",
          [_record(), _record()], 0)
    # Simulated-throughput drop beyond 10% fails.
    check("opsPerMs regression fires",
          [_record(ops=100.0), _record(ops=80.0)], 1)
    # p99 increase beyond 10% fails (inverted direction).
    check("p99 regression fires",
          [_record(p99=500.0), _record(p99=700.0)], 1)
    # p99 *improvement* of the same magnitude must NOT fail.
    check("p99 improvement passes",
          [_record(p99=700.0), _record(p99=500.0)], 0)
    # Without a "load" object the config's p99 is not gated.
    check("closed-loop p99 not gated",
          [_record(p99=500.0, with_load=False),
           _record(p99=700.0, with_load=False)], 0)
    # A looser explicit p99 threshold tolerates the increase.
    check("p99 threshold adjustable",
          [_record(p99=500.0), _record(p99=700.0)], 0,
          extra_args=["--p99-threshold", "0.5"])
    # Sanitizer-stamped records are rejected outright.
    check("sanitizer baseline rejected",
          [_record(sanitizer="asan+ubsan"), _record()], 2)
    check("sanitizer current rejected",
          [_record(), _record(sanitizer="tsan")], 2)
    # Missing baseline: fatal by default, tolerated with the opt-in.
    check("missing baseline fatal by default",
          [None, _record()], 2)
    check("missing baseline tolerated with flag",
          [None, _record()], 0,
          extra_args=["--allow-missing-baseline"])
    # Mismatched bench names never compare.
    check("bench name mismatch rejected",
          [_record(bench="a"), _record(bench="b")], 2)

    failed = [c for c in checks if not c[1]]
    for name, ok, rc, expect, out in checks:
        print("  %-40s %s" % (name, "ok" if ok else
                              "FAIL (rc=%d, want %d)" % (rc, expect)))
        if not ok:
            print("    --- captured output ---")
            for line in out.splitlines():
                print("    " + line)
    if failed:
        print("perf_trend --self-test: %d/%d checks failed"
              % (len(failed), len(checks)))
        return 1
    print("perf_trend --self-test: all %d checks passed" % len(checks))
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
