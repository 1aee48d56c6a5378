# Convenience entry points; everything is plain dune underneath.

.PHONY: build test test-slow lint lint-fast bench-check \
	metrics-check service-check repro clean

build:
	dune build

# Static analysis: sc_lint over lib/, bin/ and test/ with the waiver
# baseline in lint/waivers.sexp.  Fails on any unwaived finding or on
# a waiver that no longer matches anything (--stale-waivers), so the
# baseline can only shrink.  `dune build @check` first so every file
# has a .cmt and the typed interprocedural rules (typed-secret-flow,
# domain-capture, discarded-error, transitive-determinism) run at
# full coverage.
lint:
	dune build @check tools/sc_lint/sc_lint.exe
	dune exec tools/sc_lint/sc_lint.exe -- --root . --stale-waivers \
	  lib bin test

# Parsetree rules only (no build required): the same gate the @lint
# dune alias enforces, for quick iteration.
lint-fast:
	dune build @lint

test:
	dune runtest

# The whole suite including the `Slow conformance cases: Monte-Carlo
# 3-sigma checks against eqs. (10)-(14) and lossy-channel engine
# campaigns (ALCOTEST_QUICK_TESTS explicitly unset).
test-slow:
	env -u ALCOTEST_QUICK_TESTS dune exec test/test_main.exe

# One command between you and a perf regression: build, lint, run the
# suite including the slow conformance cases (value identity at 1 and
# N domains and O(log n) Merkle dynamics are tier-1 tests there), then
# the per-layer and end-to-end benchmark (exits nonzero on any
# ground-truth violation), the cost-invariant check and the service
# soak.
bench-check:
	dune build
	$(MAKE) lint
	$(MAKE) test-slow
	python3 perfbench/run.py --workload all
	$(MAKE) metrics-check
	$(MAKE) service-check

# The sharded multi-tenant service layer, end to end.  First a small
# campaign re-run at two domain counts (--identity-check exits 1
# unless digests and ledgers are bit-identical), then the full
# million-identity soak: every identity admitted through the bounded
# shard queues (backpressure included), a heavy-tenant subset doing
# full store/audit/compute crypto over the wire with injected
# corruption as ground truth.  Writes BENCH_service.json and gates it
# on bench/service.slo.
service-check:
	dune exec bin/seccloud_cli.exe -- simulate --service \
	  --identities 20000 --heavy 32 --corrupt 4 --seed service-identity \
	  --identity-check
	dune exec bin/seccloud_cli.exe -- simulate --service \
	  --identities 1000000 --seed bench-service \
	  --out BENCH_service.json --slo bench/service.slo

# Runs a representative workload and fails when a verification-cost
# invariant regresses (e.g. Ibs.verify back to 2 pairings, or a
# batched audit of k jobs costing more than k+1 equations), then once
# more over a seeded lossy transport (30% drop, 5% tamper): the audit
# round must still terminate with typed verdicts, exercise the retry
# path, and keep the attempt ledger consistent.  Finally a traced
# lossy simulation is analyzed against the SLOs in bench/trace.slo
# (trace-tree integrity, zero false alarms, latency ceilings) and the
# report lands in BENCH_trace.json.
metrics-check:
	dune exec bin/seccloud_cli.exe -- stats --params toy --check
	dune exec bin/seccloud_cli.exe -- stats --params toy --check \
	  --drop 0.3 --tamper 0.05 --seed lossy
	SECCLOUD_DOMAINS=4 dune exec bin/seccloud_cli.exe -- stats --params toy \
	  --check
	dune exec bin/seccloud_cli.exe -- simulate --epochs 3 --drop 0.05 \
	  --seed slo --trace trace_slo.jsonl
	dune exec bin/seccloud_cli.exe -- trace analyze trace_slo.jsonl \
	  --slo bench/trace.slo --out BENCH_trace.json

repro:
	dune exec bin/repro.exe -- all

clean:
	dune clean
