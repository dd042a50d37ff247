# Developer / CI entry points for the BSOR reproduction.
#
#   make test       - tier-1 test suite (what must never regress)
#   make test-fast  - the suite minus @pytest.mark.slow (the fast CI job)
#   make test-faults - the fault-injection campaigns: spec/rerouting units,
#                     the hypothesis invariant campaign (slow part
#                     included) and the degraded-topology differential
#                     suite
#   make coverage   - full suite under coverage with the CI coverage floor
#                     (needs pytest-cov: pip install pytest-cov)
#   make smoke      - every figure and table benchmark (Figures 6-1 .. 6-10,
#                     Tables 6.1 .. 6.3) at the quick profile through the
#                     parallel runner (~12 s)
#   make smoke-cli  - exercise the unified CLI end to end: help, a registry
#                     listing, schema validation of every bundled study
#                     spec, the smoke study on a tiny mesh, and three
#                     commands (a small BSOR study, a faulted `compare`,
#                     `table 6-1`) each run twice into a temp cache: the
#                     second run must solve no plan, simulate no point and
#                     print byte-identical stdout (scripts/warm_smoke.py)
#   make bench      - the pipeline benchmark (benchmarks/pipeline/, what
#                     BENCHMARK.json declares) at smoke scale: all five
#                     workloads on 4x4 meshes with the gate checks —
#                     warm == cold, served == in-process, queue == local,
#                     every plan deadlock-checked (the reference digests
#                     are full-scale only and skipped here) — non-zero
#                     exit on any failed check (~10 s); timings at this
#                     scale are never recorded
#   make bench-smoke - time all three simulator backends on a small fixed
#                     sweep (the batch kernel as one vectorized call),
#                     write BENCH_simkernel.json (appending the record to
#                     its trajectory), fail if a backend regresses below
#                     parity (generous margin), then gate the trajectory:
#                     a tracked speedup more than 20% below its best
#                     recorded value fails the job (scripts/bench_trend.py)
#   make report-smoke - run the smoke study to JSON and render it as the
#                     single-file HTML report (pivots + the channel-load
#                     heatmap of its plan), then do the same with a
#                     faulted `compare --format json` document (saturation
#                     summary + degradation table + a heatmap column per
#                     router and fault set, the degraded plans included),
#                     to prove the report path end to end
#   make serve-smoke - start a real `python -m repro serve` subprocess on
#                     an ephemeral port, submit the smoke study cold,
#                     resubmit it warm (must complete entirely from the
#                     result cache, byte-identical document), and shut the
#                     server down cleanly (scripts/serve_smoke.py)
#   make reach      - list, per module, the function lines of src/repro
#                     that no front door enters (scripts/reach.py; several
#                     minutes, so not part of check)
#   make links      - fail on broken relative links in README.md / docs/
#   make docs       - regenerate docs/api/*.md, docs/routing-guide.md and
#                     docs/workloads-guide.md
#   make docs-check - fail when the generated docs are stale
#   make check      - test + smoke + smoke-cli + report-smoke +
#                     serve-smoke + bench + docs-check + links, the gate CI
#                     applies (its fast job runs these with test-fast, its
#                     full job runs bench and adds the slow tests and the
#                     coverage floor)

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

#: Minimum line coverage (percent) the full CI job enforces.
COVERAGE_FLOOR ?= 75

.PHONY: test test-fast test-faults coverage smoke smoke-cli bench bench-smoke bench-trend report-smoke serve-smoke reach links docs docs-check check clean-cache

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

test-faults:
	$(PYTHON) -m pytest -x -q tests/test_faults.py \
		tests/invariants/test_fault_invariants.py \
		tests/test_backend_differential.py

coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing \
		--cov-fail-under=$(COVERAGE_FLOOR)

smoke:
	REPRO_BENCH_PROFILE=quick $(PYTHON) -m pytest benchmarks/bench_figure_6_*.py \
		benchmarks/bench_table_6_*.py --benchmark-only -x -q -p no:cacheprovider

smoke-cli:
	$(PYTHON) -m repro --help > /dev/null
	$(PYTHON) -m repro list routers
	$(PYTHON) -m repro validate examples/studies/*.yaml
	$(PYTHON) -m repro run examples/studies/smoke.yaml --backend fast --no-cache
	$(PYTHON) scripts/warm_smoke.py

bench:
	$(PYTHON) benchmarks/pipeline/bench.py --scale smoke --seed 0

bench-smoke:
	$(PYTHON) scripts/bench_smoke.py --check
	$(PYTHON) scripts/bench_trend.py

bench-trend:
	$(PYTHON) scripts/bench_trend.py

report-smoke:
	$(PYTHON) -m repro run examples/studies/smoke.yaml --backend fast \
		--no-cache --format json --output /tmp/repro-report-smoke.json \
		--progress quiet
	$(PYTHON) -m repro --no-cache report /tmp/repro-report-smoke.json \
		--output /tmp/repro-report-smoke.html
	@grep -q "channel load</h2>" /tmp/repro-report-smoke.html
	$(PYTHON) -m repro compare --profile quick --topology mesh4x4 \
		--patterns transpose --routers dor,bsor-dijkstra \
		--faults "none;link:5-6" --no-cache --progress quiet \
		--format json --output /tmp/repro-report-smoke-compare.json
	$(PYTHON) -m repro --no-cache report /tmp/repro-report-smoke-compare.json \
		--output /tmp/repro-report-smoke-compare.html
	@grep -q "Degradation under faults" /tmp/repro-report-smoke-compare.html
	@grep -q "<th class='col'>bsor-dijkstra / link:5-6</th>" \
		/tmp/repro-report-smoke-compare.html
	@echo "report-smoke: ok"

serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

reach:
	$(PYTHON) scripts/reach.py

links:
	$(PYTHON) scripts/check_links.py

docs:
	$(PYTHON) scripts/gen_api_docs.py

docs-check:
	$(PYTHON) scripts/gen_api_docs.py --check

check: test smoke smoke-cli report-smoke serve-smoke bench docs-check links

clean-cache:
	$(PYTHON) -m repro cache clear
