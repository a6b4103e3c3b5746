.PHONY: all check test smoke bench-smoke release bench-json bench-json3 \
        bench-json5 bench-json6 bench-json7 bench-json8 bench-json9 \
        bench-json10 par-test serve-smoke load-smoke incr-smoke cost-smoke \
        mtbdd-smoke lint perfbench clean

all:
	dune build

# The full gate: build, unit/property tests, and the seconds-scale
# benchmark smoke run.  The smoke includes the reorder round-trip on a
# deliberately bad declaration order and exits non-zero on any manager
# invariant violation after reordering.
check:
	dune build
	dune runtest
	dune build @bench-smoke

test:
	dune runtest

# jeddlint over the shipped sources: the clean example and the five
# Figure 2 analyses must produce no warnings or errors (exit 0); the
# seeded-defect example must trip the checkers (exit non-zero).
lint:
	dune build bin/jeddc_main.exe bin/analyze_main.exe
	dune exec bin/jeddc_main.exe -- --lint=text examples/lint_clean.jedd
	dune exec bin/analyze_main.exe -- -b tiny --lint
	dune exec bin/analyze_main.exe -- -f examples/shapes.mjava --lint
	! dune exec bin/jeddc_main.exe -- --lint=text examples/lint_defects.jedd

smoke:
	dune build @bench-smoke

# Alias used by CI.
bench-smoke: smoke

# Optimised binaries (-O3 -unsafe -noassert); see the root `dune` file.
release:
	dune build --profile release

# Regenerate the machine-readable benchmark summaries committed at the
# repo root (BENCH_pr1.json, BENCH_pr2.json, BENCH_pr3.json).
bench-json:
	dune exec --profile release bench/main.exe -- json
	dune exec --profile release bench/main.exe -- json2

# In-core vs out-of-core (extmem) points-to comparison, including the
# capped-memory scenario that only the extmem backend survives.
bench-json3:
	dune exec --profile release bench/main.exe -- json3

# jeddd warm-start story: cold pipeline vs snapshot load vs per-query
# server latency; fails if warm-start is not at least 5x faster.
bench-json5:
	dune exec --profile release bench/main.exe -- json5

# Multi-core scaling curves (1/2/4/8 domains) for the points-to
# join/compose hot path and the combined five-analysis suite; fails if
# parallel results are not bit-identical to sequential, and (on hosts
# with >= 4 cpus) if neither curve reaches 2x at 4 domains.
bench-json6:
	dune exec --profile release bench/main.exe -- json6

# The parallel differential suite plus an end-to-end pipeline run at
# --jobs 4 verified against the reference analyses.  Used by CI.
par-test:
	dune build test/test_main.exe bin/analyze_main.exe
	dune exec test/test_main.exe -- test parallel
	dune exec bin/analyze_main.exe -- -b compress --jobs 4 --verify

# End-to-end daemon round trip: jeddd cold start, jeddq queries over
# the socket, snapshot save, warm restart, answers compared.
serve-smoke:
	sh scripts/serve_smoke.sh

# Serving under load, CI-sized: 50 concurrent TCP clients against a
# frozen 2-worker server over a warm snapshot; fails on any transport
# or application error, or if the result cache never hits.
load-smoke:
	dune exec bench/main.exe -- load

# Full serving benchmark: worker sweep at 1/2/4/8 with p50/p95/p99 +
# throughput + cache hit rate, frozen-vs-refcounted comparison, and a
# three-transport bit-identity gate.  Writes BENCH_pr7.json.
bench-json7:
	dune exec --profile release bench/main.exe -- json7

# Incremental evaluation, CI-sized: the quick halves of the incr and
# store suites — semi-naive vs naive differential, live-session edits
# checked tuple-for-tuple against from-scratch solves, and the
# differential-snapshot (delta) round trips.
incr-smoke:
	dune build test/test_main.exe
	dune exec test/test_main.exe -- test incr -q
	dune exec test/test_main.exe -- test store -q

# Cost per edit for the live incremental path vs from-scratch solves at
# 1/5/25 accumulated edits, plus the delta-size curve per generation;
# fails unless a single added call site re-solves >= 10x faster than
# from scratch with bit-identical relations.  Writes BENCH_pr8.json.
bench-json8:
	dune exec --profile release bench/main.exe -- json8

# Static cost model, CI-sized: the cost/lint unit suite (loop nesting,
# frequency weights, shape estimates, the JL201/JL202 golden snapshot,
# the weighted-assignment and hybrid-backend differentials) plus a tiny
# json9 run whose gates require bit-identical weighted results, a
# strict dynamic-replace reduction on the hoist microbenchmark, and a
# hybrid run that completes and beats extmem under the node cap.
cost-smoke:
	dune build test/test_main.exe bench/main.exe bin/jeddc_main.exe
	dune exec test/test_main.exe -- test cost -q
	! dune exec bin/jeddc_main.exe -- --lint=text examples/cost_defects.jedd
	JEDD_COST_BENCH=tiny JEDD_BACKEND_BENCH=tiny \
	  JEDD_BENCH_JSON9_PATH=_build/BENCH_pr9.smoke.json \
	  dune exec bench/main.exe -- json9

# Weighted domain assignment vs the unweighted CDCL baseline on the
# five analyses (bit-identical results required) plus the hybrid
# backend on the capped points-to workload.  Writes BENCH_pr9.json.
bench-json9:
	dune exec --profile release bench/main.exe -- json9

# Terminal-valued (mtbdd) backend, CI-sized: the mtbdd unit/property
# suite (apply/exist/replace brute-force differentials, bool round
# trips, weighted relations, weighted analyses), the extmem suite whose
# storm and 3-way differential now cover the mtbdd backend, an
# end-to-end mtbdd pipeline run, and a tiny json10 run whose gates
# require the mtbdd points-to support to be tuple-identical to the
# in-core result and the counting projection to match a boolean
# recount.
mtbdd-smoke:
	dune build test/test_main.exe bench/main.exe bin/analyze_main.exe
	dune exec test/test_main.exe -- test mtbdd -q
	dune exec test/test_main.exe -- test extmem -q
	dune exec bin/analyze_main.exe -- -b tiny --backend=mtbdd
	JEDD_MTBDD_BENCH=tiny \
	  JEDD_BENCH_JSON10_PATH=_build/BENCH_pr10.smoke.json \
	  dune exec bench/main.exe -- json10

# Weighted points-to (allocation counts) and the call-frequency
# weighted call graph on the mtbdd backend vs the boolean in-core
# baseline plus recount; projection bit-identity gated.  Writes
# BENCH_pr10.json.
bench-json10:
	dune exec --profile release bench/main.exe -- json10

# The repository benchmark (BENCHMARK.json): every workload, untraced
# and traced, each pinned to one CPU; exits 1 on any wrong answer.
perfbench:
	python3 perfbench/run.py --all

clean:
	dune clean
