#!/usr/bin/env python3
"""Golden check of a bench binary's simulated output.

Runs BINARY --scale=0.25 --jobs=4 --json=<tmp> and compares two things
with the goldens GOLDEN.json and GOLDEN.txt:

  - the JSON record, after dropping the host fields (host, hostMs,
    eventsPerSec, wallMs, options.jobs) and the sanitizer build stamp,
    value for value;
  - stdout, after dropping the "harness:" and "wrote" lines, line for
    line.

Everything left is simulated, so it is the same on every host, build
type and --jobs value. A golden changes only with the model: a change
that updates one says in CHANGES.md which model change moved it and
why, and never rides along with a refactor.

--bench=<list> passes the same option on, so one binary's benches can
be split across goldens. --shards=1,4 runs the binary once per shard count against the same
goldens (a count above 1 adds --sim-shards=N). Sharded results are
bit-identical to one-shard ones except heapEvents, the number of events
the kernel's timing wheels deferred to their overflow heaps, which
depends on how the machine is split; sharded runs are compared without
it.

Usage:
  golden.py BINARY GOLDEN           check; exit 1 on a difference
  golden.py BINARY GOLDEN --shards=1,4
                                    check at each shard count
  golden.py BINARY GOLDEN --bench=a,b
                                    check only the named benches
  golden.py BINARY GOLDEN --update  rewrite GOLDEN.json and GOLDEN.txt
  golden.py --self-test             prove the checker ignores host
                                    fields and catches simulated ones
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

RUN_ARGS = ["--scale=0.25", "--jobs=4"]
HOST_FIELDS = {"host", "hostMs", "eventsPerSec", "wallMs"}
SHARD_LAYOUT_FIELDS = {"heapEvents"}
HOST_LINE_PREFIXES = ("harness:", "wrote ")


def strip(value, fields):
    """The record without the named fields, recursively."""
    if isinstance(value, dict):
        return {k: strip(v, fields) for k, v in value.items()
                if k not in fields}
    if isinstance(value, list):
        return [strip(v, fields) for v in value]
    return value


def normalize_record(record):
    record = strip(record, HOST_FIELDS)
    record.get("options", {}).pop("jobs", None)
    record.pop("sanitizer", None)
    return record


def normalize_text(text):
    return [line for line in text.splitlines()
            if not line.startswith(HOST_LINE_PREFIXES)]


def dump_record(record):
    """Compact JSON, one config per line, so a diff names the cell."""
    head = {k: v for k, v in record.items() if k != "configs"}
    lines = [json.dumps(c, separators=(",", ":"))
             for c in record.get("configs", [])]
    return (json.dumps(head, separators=(",", ":")) + "\n"
            + "\n".join(lines) + "\n")


def load_record(text):
    lines = text.splitlines()
    record = json.loads(lines[0])
    record["configs"] = [json.loads(line) for line in lines[1:] if line]
    return record


def first_difference(want, got, path="$"):
    """The path of the first value that differs, or None."""
    if type(want) is not type(got):
        return "%s: golden %r, got %r" % (path, want, got)
    if isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in want or key not in got:
                return "%s.%s: only in %s" % (
                    path, key, "golden" if key in want else "run")
            diff = first_difference(want[key], got[key],
                                    "%s.%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(want, list):
        for i, (w, g) in enumerate(zip(want, got)):
            label = w.get("label") if isinstance(w, dict) else None
            diff = first_difference(
                w, g, "%s[%s]" % (path, label if label else i))
            if diff:
                return diff
        if len(want) != len(got):
            return "%s: golden has %d entries, got %d" % (
                path, len(want), len(got))
        return None
    if want != got:
        return "%s: golden %r, got %r" % (path, want, got)
    return None


def compare(golden_record, golden_text, record, text, sharded=False):
    """Differences between a run and the goldens, as messages."""
    problems = []
    record = normalize_record(record)
    if sharded:
        golden_record = strip(golden_record, SHARD_LAYOUT_FIELDS)
        record = strip(record, SHARD_LAYOUT_FIELDS)
    # Identical records (equal dumps: same keys, values and types) are
    # the common case; walk them only to name a difference.
    diff = (dump_record(golden_record) != dump_record(record)
            and first_difference(golden_record, record))
    if diff:
        problems.append("JSON record differs: " + diff)
    want, got = golden_text, normalize_text(text)
    if want != got:
        for i in range(max(len(want), len(got))):
            w = want[i] if i < len(want) else "<end>"
            g = got[i] if i < len(got) else "<end>"
            if w != g:
                problems.append("stdout differs at line %d:\n  golden: %s"
                                "\n  got:    %s" % (i + 1, w, g))
                break
    return problems


def run_bench(binary, shards=1, benches=None):
    args = RUN_ARGS + (["--sim-shards=%d" % shards] if shards > 1 else [])
    args += ["--bench=" + benches] if benches else []
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "record.json")
        proc = subprocess.run([binary] + args + ["--json=" + path],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit("golden: %s %s exited %d"
                     % (binary, " ".join(args), proc.returncode))
        with open(path, encoding="utf-8") as f:
            return json.load(f), proc.stdout


def self_test():
    record = {"bench": "demo", "options": {"scale": 0.25, "jobs": 4},
              "host": {"wallMs": 1.0},
              "configs": [{"label": "a/x", "simTicks": 10, "hostMs": 2.0,
                           "eventsPerSec": 5.0, "events": 7,
                           "heapEvents": 3}]}
    text = "table row 1\nharness: 1 configs, host 0.1 s\nwrote r.json\n"
    golden = load_record(dump_record(normalize_record(record)))
    golden_text = normalize_text(text)

    host_moved = json.loads(json.dumps(record))
    host_moved["options"]["jobs"] = 1
    host_moved["sanitizer"] = "thread"
    host_moved["host"]["wallMs"] = 9.0
    host_moved["configs"][0]["hostMs"] = 9.0
    host_moved["configs"][0]["eventsPerSec"] = 9.0
    sim_moved = json.loads(json.dumps(record))
    sim_moved["configs"][0]["simTicks"] = 11
    heap_moved = json.loads(json.dumps(record))
    heap_moved["configs"][0]["heapEvents"] = 4
    sim_moved_sharded = json.loads(json.dumps(heap_moved))
    sim_moved_sharded["configs"][0]["events"] = 8
    # (name, run record, run stdout, sharded run, should fail)
    cases = [
        ("identical run", record, text, False, False),
        ("host fields and lines moved", host_moved,
         text.replace("0.1 s", "0.7 s").replace("r.json", "s.json"),
         False, False),
        ("simulated field moved", sim_moved, text, False, True),
        ("table line moved", record, text.replace("row 1", "row 2"),
         False, True),
        ("config missing", dict(record, configs=[]), text, False, True),
        ("heapEvents moved", heap_moved, text, False, True),
        ("heapEvents moved, sharded", heap_moved, text, True, False),
        ("events moved, sharded", sim_moved_sharded, text, True, True),
    ]
    failures = 0
    for name, rec, out, sharded, should_fail in cases:
        problems = compare(golden, golden_text, rec, out, sharded)
        ok = bool(problems) == should_fail
        failures += not ok
        print("self-test: %-28s %s" % (name, "ok" if ok else "WRONG"))
    if failures:
        print("golden self-test FAILED", file=sys.stderr)
        return 1
    print("golden self-test OK (%d cases)" % len(cases))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="check a bench binary against its goldens")
    ap.add_argument("binary", nargs="?")
    ap.add_argument("golden", nargs="?",
                    help="golden path without .json/.txt")
    ap.add_argument("--shards", default=[1],
                    type=lambda s: [int(n) for n in s.split(",")],
                    help="comma-separated shard counts to check at "
                         "(default 1)")
    ap.add_argument("--bench",
                    help="comma-separated benches to run (default all)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the goldens from the one-shard run")
    ap.add_argument("--self-test", action="store_true",
                    help="check the checker on synthetic records")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.binary or not args.golden:
        ap.error("need BINARY and GOLDEN")

    if args.update:
        record, text = run_bench(args.binary, benches=args.bench)
        with open(args.golden + ".json", "w", encoding="utf-8") as f:
            f.write(dump_record(normalize_record(record)))
        with open(args.golden + ".txt", "w", encoding="utf-8") as f:
            f.write("\n".join(normalize_text(text)) + "\n")
        print("golden: wrote %s.json and %s.txt"
              % (args.golden, args.golden))
        return 0

    with open(args.golden + ".json", encoding="utf-8") as f:
        golden = load_record(f.read())
    with open(args.golden + ".txt", encoding="utf-8") as f:
        golden_text = f.read().splitlines()
    failed = False
    for shards in args.shards:
        record, text = run_bench(args.binary, shards, args.bench)
        problems = compare(golden, golden_text, record, text, shards > 1)
        for p in problems:
            print("golden: %d shard(s): %s" % (shards, p))
        if problems:
            print("golden: %s at %d shard(s) differs from %s.{json,txt}; "
                  "a golden changes only with the model"
                  % (args.binary, shards, args.golden), file=sys.stderr)
            failed = True
        else:
            print("golden: %s at %d shard(s) matches %s (%d configs)"
                  % (args.binary, shards, args.golden,
                     len(golden["configs"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
