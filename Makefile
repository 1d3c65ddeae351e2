# Developer entry points.  `make check` is the tier-1 gate (tests +
# bytecode compile); `make bench` regenerates the paper artefacts and
# appends a timing record to benchmarks/results/BENCH_obs.json.

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: check test lint lint-dataflow lint-baseline bench bench-batch \
	bench-scaling bench-incremental bench-explain bench-throughput \
	bench-gate bench-baselines profile-smoke obs-smoke kernel-gate

check:
	sh scripts/check.sh

test:
	python -m pytest -x -q

# Static analysis: the determinism/soundness code linter over src/,
# then the configuration verifier over the shipped examples.
lint:
	python -m repro.lint src/repro
	python -m repro.cli lint examples/configs/*.json --no-utilization-table

# Interprocedural dataflow lint (taint + ownership + fork-safety) over
# everything we ship, gated on the committed baseline: pre-existing
# benchmark/script findings are tolerated, new findings fail.
lint-dataflow:
	python -m repro.lint --engine dataflow --baseline lint_baseline.json \
		src/repro benchmarks scripts

# Re-record the baseline after deliberately accepting new findings.
lint-baseline:
	python -m repro.lint --engine dataflow --baseline lint_baseline.json \
		--write-baseline src/repro benchmarks scripts

bench:
	python -m pytest benchmarks/ --benchmark-only

# Sequential vs parallel batch-engine timing; appends to
# benchmarks/results/BENCH_batch.json (records cpu_count honestly).
bench-batch:
	python benchmarks/bench_batch.py

# Analyzer wall time vs configuration size; appends to
# benchmarks/results/BENCH_scaling.json.
bench-scaling:
	python benchmarks/bench_scaling.py

# Cold full analysis vs warm incremental re-analysis of one edit;
# appends to benchmarks/results/BENCH_incremental.json.
bench-incremental:
	python benchmarks/bench_incremental.py

# Plain analysis vs explain=True provenance overhead; appends to
# benchmarks/results/BENCH_explain.json.
bench-explain:
	python benchmarks/bench_explain.py

# Fleet throughput (configs/sec) over a seeded 200-config corpus:
# cold vs warm-pool vs warm-pool+cache, bit-identical bounds; appends
# to benchmarks/results/BENCH_throughput.json.
bench-throughput:
	python benchmarks/bench_throughput.py

# Compare the latest BENCH_*.json records against the committed
# baselines (advisory; `--strict` in CI to make regressions fatal).
bench-gate:
	python scripts/bench_gate.py

bench-baselines:
	python scripts/bench_gate.py --update-baselines

# Observatory smoke: `afdx profile` on fig1, valid Chrome traces, and
# a byte-identical deterministic section across runs and --jobs.
profile-smoke:
	python scripts/profile_smoke.py

# Run-history smoke: analyze into a temp history dir across simulated
# git revs and --jobs; afdx obs list/show/diff exit 0, drift verdict
# clean, injected bounds change detected.
obs-smoke:
	python scripts/obs_smoke.py

# Trajectory kernel equivalence: fast vs frozen reference oracle
# (tests/trajectory/reference_kernel.py), bounds bit-identical on every
# scenario, across --jobs and cold/warm incremental cache.
kernel-gate:
	python scripts/kernel_gate.py
