PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify lint lint-changed test bench-pairs scoreboard report \
	sweep-smoke trace-smoke scenario-smoke

# The one gate: ruff (when installed) + tier-1 pytest (which includes
# the full-tree lint gate) + the benchmarks/ suite (E01-E24 paper claims
# and the component perf rows' asserts) + the benchmark harness's own
# tests (perfbench/tests) + the sweep smoke matrix + the scenario and
# trace smokes.
verify:
	$(PYTHON) -m repro verify

# Tiny 2-design x 2-seed matrix on 2 workers, with the workers=1-vs-N
# byte-identical-artifact determinism check (also chained into verify).
sweep-smoke:
	$(PYTHON) -m repro sweep --smoke

# Export a short run as Chrome Trace Event JSON and schema-validate it
# (the write path validates before writing; also chained into verify).
trace-smoke:
	$(PYTHON) -m repro trace --ms 5 --chrome /tmp/repro-trace-smoke.json

# Run the feed-gap-storm chaos scenario twice and byte-compare the JSON
# renderings — the determinism gate for the fault-injection tier (also
# chained into verify).
scenario-smoke:
	$(PYTHON) -m repro scenario feed-gap-storm --format json --check

lint:
	$(PYTHON) -m repro lint

# Findings scoped to git-dirty files; the whole tree is still analyzed
# so cross-file hot-path violations stay visible.
lint-changed:
	$(PYTHON) -m repro lint --changed

test:
	$(PYTHON) -m pytest -x -q

# Alternating pairs of perfbench runs, BASE (a git revision, checked out
# into a temporary worktree) against the working tree, with each side's
# quartiles, the pairs won and the claimable/regressed verdicts per
# end-to-end metric; one table per workload. WORKLOAD takes one or more
# BENCHMARK.json names ("a b") or all, e.g.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=all PAIRS=10 SECONDS=20
BASE ?= HEAD
WORKLOAD ?= options-chain
PAIRS ?= 10
SECONDS ?= 20
SEED ?= 1
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seconds $(SECONDS) --seed $(SEED)

# The full pytest-benchmark scoreboard (component rows and E-series).
scoreboard:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

report:
	$(PYTHON) -m repro report --design design1
