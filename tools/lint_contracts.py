#!/usr/bin/env python3
"""Mechanical checks for this repo's decided API contracts.

Each rule here is a contract that was settled in a past change and must
not silently regress (ROADMAP "decided contracts"). The checks are pure
text scans — no compiler needed — so they run in well under five
seconds and are wired into CI ahead of the build:

  1. retired-ident     Retired identifiers must not reappear in code:
                       the SyncVar shim layer, the op-stream hooks
                       folded into the one observer list (TraceSink,
                       setTraceSink, ShardedObserver), the istream
                       trace reader that MappedTraceReader replaced
                       (the word-bounded match leaves the latter be),
                       the SE persist-hook interface and the request
                       stamp it needed, the lock-fairness knob, and the
                       engine subclasses that only passed options
                       (Hier and the two MiSAR overflow variants now
                       register engine::SynCronBackend directly), and
                       the durability shadow oracle (recovery and the
                       crash sweep drive analysis::SyncStateModel).
  2. no-scheme-switch  Backends are looked up through the string-keyed
                       BackendRegistry; `case Scheme::` dispatch is
                       allowed only in the name-mapping table
                       (src/system/config.cc).
  3. callback-bound    The kernel's event callback is an InplaceCallback
                       whose capacity is single-sourced in
                       src/sim/event_queue.hh; other files must use the
                       EventQueue::Callback alias, never instantiate
                       InplaceCallback<N> with their own bound.
  4. no-std-function   std::function allocates per capture and is banned
                       from simulation code (src/); the registry factory,
                       the cold stats visitor and the bench driver's grid
                       cells are the only allowed uses. Bench/test driver
                       code is exempt.
  5. header-hygiene    Every header under src/ carries an include guard
                       derived from its path (SYNCRON_<DIR>_<NAME>_HH),
                       no `#pragma once`, and no `../` relative
                       includes (all includes are src/-rooted).
  6. persist-scope     PM writes are charged (pmWrites / pmBitsWritten
                       incremented) only in src/durability/ (the WAL)
                       and src/syncron/ (the SE-state images), plus
                       SystemStats::operator+= in src/common/stats.cc
                       (perfbench sums cells with it); other
                       simulation code goes through
                       SystemConfig::persistMode.
  7. shard-scope       Under --sim-shards the machine has one timing
                       wheel per shard and only the PDES coordinator
                       may touch a queue it does not own. Machine has
                       no unit-less queue accessor; a bare
                       `eq().schedule[In]` (a reintroduced shard-0
                       shortcut) or grabbing the full queue set
                       (`shardQueues()`) is scoped to src/sim/ and
                       src/system/machine.* (plus the system driver
                       that hands the set to the coordinator) —
                       everyone else goes through eq(unit),
                       postMessage(), or memoryAccessAsync(), which
                       keep every event on its unit's own shard.
                       Filing a keyed cross-unit delivery
                       (`scheduleDelivery(`) is confined to src/sim/
                       and src/system/machine.*:
                       its key orders it against the destination's
                       window, which only the Machine's message path
                       keeps consistent.
  8. one-observer-path Op-stream consumers register through
                       SyncApi::addObserver(). The older names
                       setObserver() and addAuxObserver() survive only
                       as forwards in src/sync/api.hh; no code here may
                       call them.
  9. one-bench-entry   Every bench binary runs through
                       harness::benchMain, which parses the options,
                       owns the report and runs the labeled grid. No
                       file under bench/ may call BenchOptions::parse,
                       construct a BenchReport, or call runGrid(
                       directly.
 10. flat-op-path      The per-op observer and flat-state path stays
                       flat: src/sync/api.hh, src/sync/flat_state.hh,
                       src/trace/capture.hh and src/analysis/live.hh
                       hold no std::map, std::unordered_map or
                       std::mutex (address-keyed tables are
                       common::AddrMap; every shard runs on one
                       thread).

Usage:
  lint_contracts.py [--root DIR]   lint the tree, exit 1 on violations
  lint_contracts.py --self-test    prove each rule still fires on a
                                   seeded violation, exit 1 if any
                                   rule has gone blind
"""

import argparse
import os
import re
import sys
import tempfile

CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
CODE_EXTS = (".cc", ".hh")

# Some names are spelled with a group so the retired word itself stays
# out of the tree (`grep -rnw` over tools/ included).
RETIRED_RE = re.compile(
    r"\b(SyncVar|Trace(?:Sink|Reader)|setTraceSink|ShardedObserver"
    r"|Persist(?:Hook)|withWal(?:Seq)|localGrant(?:Threshold)"
    r"|(?:Hier|CentralOvrfl|DistribOvrfl)Backend|Shadow(?:Oracle))\b")
OLD_OBSERVER_CALL_RE = re.compile(r"\b(setObserver|addAuxObserver)\s*\(")
BENCH_PLUMBING_RE = re.compile(
    r"\bBenchOptions::parse\b|\bBenchReport\b|\brunGrid\s*\(")
SCHEME_SWITCH_RE = re.compile(r"\bcase\s+Scheme::")
INPLACE_INST_RE = re.compile(r"\bInplaceCallback\s*<")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
PM_CHARGE_RE = re.compile(r"\bpm(?:Writes|BitsWritten)\s*(?:\+\+|\+=)"
                          r"|\+\+[\w.()>\s-]*?\bpm(?:Writes|BitsWritten)\b")
SHARD0_SCHEDULE_RE = re.compile(
    r"\beq\s*\(\s*\)\s*\.\s*schedule(In)?\s*\(")
SHARD_QUEUES_RE = re.compile(r"\bshardQueues\s*\(\s*\)")
DELIVERY_SCHEDULE_RE = re.compile(r"\bscheduleDelivery\s*\(")
NODE_MAP_RE = re.compile(
    r"\bstd::(unordered_map|map|mutex)\b"
    r"|#\s*include\s*<(unordered_map|map|mutex)>")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once", re.MULTILINE)
RELATIVE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"\.\./', re.MULTILINE)
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.MULTILINE)

# Files (repo-relative, '/'-separated) where a rule is deliberately
# allowed. Keep each entry justified.
SCHEME_SWITCH_ALLOW = {
    "src/system/config.cc",  # Scheme <-> name mapping table
}
INPLACE_INST_ALLOW = {
    "src/common/inplace_callback.hh",  # the type itself
    "src/sim/event_queue.hh",          # the kernel's Callback alias
}
STD_FUNCTION_ALLOW = {
    "src/common/inplace_callback.hh",  # doc comment contrasting the two
    "src/common/stats.hh",             # cold end-of-run visitor
    "src/common/stats.cc",
    "src/sync/registry.hh",            # backend factory, cold
    "src/harness/report.hh",           # bench driver: one task per cell
    "src/harness/report.cc",
}
# Where PM writes may be charged: the durability subsystem (WAL records)
# and the SynCron engine (SE-state images), plus SystemStats::operator+=.
PERSIST_SCOPE_ALLOW_PREFIXES = ("src/durability/", "src/syncron/")
PERSIST_SCOPE_ALLOW = {
    "src/common/stats.cc",  # operator+= sums cells (perfbench)
}
# Where the per-shard queue topology may be touched directly: the PDES
# kernel itself, the Machine (postMessage() files deliveries onto
# foreign queues), and the system driver that hands the queue set to
# the ShardedKernel coordinator.
SHARD_SCOPE_ALLOW_PREFIXES = ("src/sim/",)
SHARD_SCOPE_ALLOW = {
    "src/system/machine.hh",   # eq()/shardQueues() definitions
    "src/system/machine.cc",   # keyed deliveries + queue-set accessor
    "src/system/system.cc",    # builds the ShardedKernel from the set
}
# Where keyed cross-unit deliveries may be filed: the kernel and the
# Machine's message path (postMessage()).
DELIVERY_SCOPE_ALLOW = {
    "src/system/machine.hh",
    "src/system/machine.cc",
}
# Headers of the per-op observer and flat-state path (flat-op-path).
FLAT_OP_PATH = {
    "src/sync/api.hh",
    "src/sync/flat_state.hh",
    "src/trace/capture.hh",
    "src/analysis/live.hh",
}
OLD_OBSERVER_CALL_ALLOW = {
    "src/sync/api.hh",  # the forwarding definitions
}


def code_files(root):
    for d in CODE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(CODE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def line_of(text, match):
    return text.count("\n", 0, match.start()) + 1


def expected_guard(rel):
    # src/sync/api.hh -> SYNCRON_SYNC_API_HH
    stem = rel[len("src/"):]
    return "SYNCRON_" + re.sub(r"[/.]", "_", stem).upper()


def lint_tree(root):
    violations = []

    def report(rel, line, rule, msg):
        violations.append("%s:%d: [%s] %s" % (rel, line, rule, msg))

    for rel in code_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()

        for m in RETIRED_RE.finditer(text):
            report(rel, line_of(text, m), "retired-ident",
                   "%s reintroduced - use the typed handles "
                   "(sync::Lock/Barrier/Semaphore/CondVar), "
                   "sync::OpObserver via SyncApi::addObserver(), "
                   "trace::MappedTraceReader, SystemConfig::persistMode, "
                   "engine::SynCronBackend with EngineOptions and "
                   "analysis::SyncStateModel"
                   % m.group(1))

        if rel not in OLD_OBSERVER_CALL_ALLOW:
            for m in OLD_OBSERVER_CALL_RE.finditer(text):
                report(rel, line_of(text, m), "one-observer-path",
                       "%s() is a forward kept for old callers - "
                       "register with SyncApi::addObserver()"
                       % m.group(1))

        if rel.startswith("bench/"):
            for m in BENCH_PLUMBING_RE.finditer(text):
                report(rel, line_of(text, m), "one-bench-entry",
                       "%s in a bench - run the bench through "
                       "harness::benchMain and queue its grid with "
                       "Bench::cell()/run()" % m.group(0).strip())

        if rel not in SCHEME_SWITCH_ALLOW:
            for m in SCHEME_SWITCH_RE.finditer(text):
                report(rel, line_of(text, m), "no-scheme-switch",
                       "backend dispatch on Scheme enum - go through "
                       "BackendRegistry (string-keyed)")

        if rel not in INPLACE_INST_ALLOW:
            for m in INPLACE_INST_RE.finditer(text):
                report(rel, line_of(text, m), "callback-bound",
                       "ad-hoc InplaceCallback<N> instantiation - use "
                       "sim::EventQueue::Callback so the capture bound "
                       "stays single-sourced")

        if rel.startswith("src/") and rel not in STD_FUNCTION_ALLOW:
            for m in STD_FUNCTION_RE.finditer(text):
                report(rel, line_of(text, m), "no-std-function",
                       "std::function in simulation code - use "
                       "InplaceCallback (alloc-free) or a template "
                       "parameter")

        if (rel.startswith("src/")
                and not rel.startswith(PERSIST_SCOPE_ALLOW_PREFIXES)
                and rel not in PERSIST_SCOPE_ALLOW):
            for m in PM_CHARGE_RE.finditer(text):
                report(rel, line_of(text, m), "persist-scope",
                       "PM write charged outside src/durability/ + "
                       "src/syncron/ - only the WAL and the SE engine "
                       "charge PM writes; configure "
                       "SystemConfig::persistMode instead")

        if (rel.startswith("src/")
                and not rel.startswith(SHARD_SCOPE_ALLOW_PREFIXES)
                and rel not in SHARD_SCOPE_ALLOW):
            for m in SHARD0_SCHEDULE_RE.finditer(text):
                report(rel, line_of(text, m), "shard-scope",
                       "schedule on the bare shard-0 queue (eq()) - "
                       "under --sim-shards this lands events on a "
                       "foreign shard; use eq(unit), postMessage(), or "
                       "memoryAccessAsync()")
            for m in SHARD_QUEUES_RE.finditer(text):
                report(rel, line_of(text, m), "shard-scope",
                       "shardQueues() outside the PDES coordinator "
                       "path - only sim/ and the Machine may touch "
                       "queues they do not own")
        if (rel.startswith("src/")
                and not rel.startswith(SHARD_SCOPE_ALLOW_PREFIXES)
                and rel not in DELIVERY_SCOPE_ALLOW):
            for m in DELIVERY_SCHEDULE_RE.finditer(text):
                report(rel, line_of(text, m), "shard-scope",
                       "scheduleDelivery() outside sim/ and the Machine "
                       "- cross-unit messages go through postMessage() "
                       "or memoryAccessAsync()")

        if rel in FLAT_OP_PATH:
            for m in NODE_MAP_RE.finditer(text):
                report(rel, line_of(text, m), "flat-op-path",
                       "%s on the per-op observer path - key by address "
                       "with common::AddrMap or by dense id with a "
                       "vector; shards share one thread, so no mutex"
                       % (m.group(1) or m.group(2)))

        if rel.startswith("src/") and rel.endswith(".hh"):
            m = PRAGMA_ONCE_RE.search(text)
            if m:
                report(rel, line_of(text, m), "header-hygiene",
                       "#pragma once - use the SYNCRON_*_HH guard")
            m = GUARD_RE.search(text)
            want = expected_guard(rel)
            if not m:
                report(rel, 1, "header-hygiene",
                       "missing include guard (expected %s)" % want)
            elif m.group(1) != want:
                report(rel, line_of(text, m), "header-hygiene",
                       "guard %s does not match path (expected %s)"
                       % (m.group(1), want))

        for m in RELATIVE_INCLUDE_RE.finditer(text):
            report(rel, line_of(text, m), "header-hygiene",
                   '"../" include - includes are src/-rooted')

    return violations


# One minimal fixture per rule; the self-test plants each in a scratch
# tree and requires the rule to fire. A rule that no longer fires on its
# own fixture has gone blind (e.g. a refactor broke its regex).
FIXTURES = [
    ("retired-ident", "src/fixture.cc",
     "SyncVar v = api.create(addr);\n"),
    ("retired-ident", "src/fixture.hh",
     "class Cap : public sync::TraceSink {};\n"),
    ("retired-ident", "tests/fixture.cc",
     "analysis::ShardedObserver mux(m, an); api.setTraceSink(&cap);\n"),
    # Spelled in two pieces so the retired name stays out of the tree
    # (`grep -rnw` over tools/ included).
    ("retired-ident", "tests/fixture.cc",
     "Trace t = Trace" "Reader(is).read();\n"),
    ("retired-ident", "src/fixture.cc",
     "durability::Persist" "Hook *h; cfg.localGrant" "Threshold = 3;\n"),
    ("retired-ident", "src/fixture.cc",
     "auto r = req.withWal" "Seq(1);\n"),
    ("retired-ident", "src/fixture.hh",
     "class X : public baselines::Hier" "Backend {};\n"
     "baselines::CentralOvrfl" "Backend a(m); baselines::DistribOvrfl"
     "Backend b(m);\n"),
    ("retired-ident", "src/fixture.cc",
     "durability::Shadow" "Oracle o(trace.primitives);\n"),
    ("one-observer-path", "tests/fixture.cc",
     "api.setObserver(&an);\napi.addAuxObserver(&wal);\n"),
    ("one-bench-entry", "bench/fixture.cc",
     "auto opts = harness::BenchOptions::parse(argc, argv);\n"
     "harness::BenchReport report(\"x\", opts);\n"
     "auto r = harness::runGrid(std::move(tasks), opts.jobs);\n"),
    ("no-scheme-switch", "src/fixture.cc",
     "int f(Scheme s){switch(s){case Scheme::Ideal: return 1;}return 0;}\n"),
    ("callback-bound", "src/fixture.cc",
     "common::InplaceCallback<128> cb;\n"),
    ("no-std-function", "src/fixture.cc",
     "#include <functional>\nstd::function<void()> f;\n"),
    ("header-hygiene", "src/fixture.hh",
     "#pragma once\n#include \"../common/log.hh\"\n"),
    ("persist-scope", "src/fixture.cc",
     "void f(SystemStats &s) { ++s.pmWrites; s.pmBitsWritten += 8; }\n"),
    ("persist-scope", "src/fixture.cc",
     "void f(Machine &m) { ++m.stats().pmWrites; }\n"),
    ("shard-scope", "src/fixture.cc",
     "void f(Machine &m) { m.eq().schedule(0, [] {});"
     " auto qs = m.shardQueues(); }\n"),
    ("shard-scope", "src/system/system.cc",
     "void f(Machine &m) { m.eq(1).scheduleDelivery(5, 0, 0, [] {}); }\n"),
    ("flat-op-path", "src/sync/flat_state.hh",
     "#include <mutex>\nstd::unordered_map<Addr, VarState> vars_;\n"),
    ("flat-op-path", "src/analysis/live.hh",
     "std::map<Addr, std::uint64_t> ids_;\n"),
]


def self_test():
    failures = []
    for rule, rel, body in FIXTURES:
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
            hits = [v for v in lint_tree(scratch) if "[%s]" % rule in v]
            if hits:
                print("self-test: %-17s fires (%d hit%s)"
                      % (rule, len(hits), "s" if len(hits) > 1 else ""))
            else:
                failures.append(rule)
                print("self-test: %-17s BLIND - fixture not flagged"
                      % rule)
    if failures:
        print("lint_contracts self-test FAILED: %s" % ", ".join(failures),
              file=sys.stderr)
        return 1
    print("lint_contracts self-test OK (%d rules)"
          % len({rule for rule, _, _ in FIXTURES}))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="lint the repo's decided API contracts")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on a seeded violation")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print("lint_contracts: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    print("lint_contracts: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
