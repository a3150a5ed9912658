# Convenience targets for the VLSA reproduction.

PY ?= python

.PHONY: install lint test bench bench-quick examples experiments clean

install:
	pip install -e .

lint:
	ruff check src tests benchmarks examples

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_FIG8_WIDTHS=64,128 REPRO_FIG4_WIDTHS=64 REPRO_ERR_WIDTHS=64 \
	$(PY) -m pytest benchmarks/ --benchmark-only

examples:
	for e in quickstart crypto_attack vlsa_pipeline design_space \
	         speculative_multiplier formal_verification; do \
	    $(PY) examples/$$e.py || exit 1; done

experiments:
	$(PY) -m repro all

# Generated results are whatever .gitignore ignores under results/; the
# committed BENCH_*.json, pareto_families.* and baselines/ stay.
clean:
	git clean -fdX -- results
	rm -rf rtl_out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
