PYTHON ?= python

.PHONY: install test lint analyze-smoke trace-smoke chaos-smoke kernel-smoke parallel-smoke e2e-smoke e2e-digests bench bench-obs bench-chaos bench-kernel bench-parallel bench-e2e figures fuzz examples results clean

install:
	$(PYTHON) setup.py develop

test: trace-smoke chaos-smoke analyze-smoke kernel-smoke parallel-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Static analysis gate: the analyzer over its own shipped workloads (the
# semantic clean targets plus a file scan of examples/ and the workload
# sources) must report nothing at warning level, and the soundness
# dogfood (static effect sets vs recorded access sets over the clean
# targets and dynamic scenarios) must report zero violations.  ruff and
# mypy are hard gates: they are pinned dev dependencies (pip install
# -e '.[dev]').  On a box without them set LINT_TOOLS=skip — an explicit
# opt-out that prints why, never a silent pass.
LINT_TOOLS ?= run
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint \
		fig1 fig2 fig3 fig5 fig6 chain pipeline pipeline-relay random \
		examples src/repro/workloads
	PYTHONPATH=src $(PYTHON) -m repro.analyze.soundness
ifeq ($(LINT_TOOLS),run)
	$(PYTHON) -m ruff check src/repro tests examples
	PYTHONPATH=src $(PYTHON) -m mypy src/repro/csp src/repro/core/messages.py \
		src/repro/core/output.py src/repro/core/pool.py \
		src/repro/core/history.py src/repro/core/guess.py \
		src/repro/core/guards.py src/repro/core/cdg.py \
		src/repro/core/control.py src/repro/core/recovery.py \
		src/repro/core/certificates.py src/repro/core/transport.py \
		src/repro/sim/rng.py src/repro/sim/faults.py
else
	@echo "LINT_TOOLS=$(LINT_TOOLS): skipping ruff/mypy (pinned dev deps; pip install -e '.[dev]' to enable)"
endif

# No dead rules, no false positives: every registered rule must fire on
# the bad-program corpus and every clean target must stay clean.
analyze-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analyze.smoke

trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.obs.smoke

# Fast chaos subset: 3 network-fault seeds plus the exec-fault smoke
# pair (one worker-kill schedule, one hang-past-deadline schedule) and
# the pool-demotion fallback gate.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.chaos --smoke

# Kernel gate, one repeat, no pin update: event counts, allocs/op and
# sim.* counters against BENCH_kernel.json, plus the zero-cost-off check.
kernel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.kernel --smoke

# Real-parallelism sanity gate: tiny thread-pool speedup + 3 parity seeds.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench.parallel --smoke

bench: bench-kernel
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-obs:
	PYTHONPATH=src $(PYTHON) -m repro.bench.speculation_health

bench-chaos:
	PYTHONPATH=src $(PYTHON) -m repro.bench.chaos

# Kernel tier, three repeats: same gate as kernel-smoke, reports events/sec
# (ungated) and rewrites the BENCH_kernel.json pin.
bench-kernel:
	PYTHONPATH=src $(PYTHON) -m repro.bench.kernel

# Full parallelism tier: wall-clock speedup at 8 workers + all 24 chaos
# parity schedules; rewrites the BENCH_parallel.json pin (gate: >=2x).
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m repro.bench.parallel

# End-to-end host-speed benchmark (benchmarks/e2e/README.md): five
# workloads through the whole stack, ~2 min; the report lands in
# benchmarks/e2e/out/.  This is what catches a speed regression.
bench-e2e:
	$(PYTHON) benchmarks/e2e/run.py

# Its ~10 s schema tier.
e2e-smoke:
	$(PYTHON) -m pytest -q benchmarks/e2e/test_smoke.py

# Timing-free byte-equality gate, ~80 s: the sim_digest of each of the five
# workloads (committed traces and every counter) at seed 11 against the one
# pinned in benchmarks/e2e/baseline.json, and at held-out seed 23 against
# tests/data/e2e_digests_seed23.json.  Run it after any change to the
# protocol core, before looking at a stopwatch.
e2e-digests:
	$(PYTHON) -m pytest -q -m slow tests/test_e2e_digests.py

figures:
	$(PYTHON) -m repro figures

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; done

# Everything once: the two smoke gates that have no full tier, the full
# bench tiers (each a superset of its smoke tier), then the test suite and
# the experiment tables, kept as text.
results: trace-smoke analyze-smoke bench-kernel bench-obs bench-chaos bench-parallel
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
