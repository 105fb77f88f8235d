# Convenience targets. `make ci` is the whole gate: anything a CI job (or
# a pre-commit hook) should run lives behind it.
#
# Formatting: no `.ocamlformat` is committed because the target toolchain
# ships no ocamlformat binary (a config file would break `dune build @fmt`
# for everyone). Match the hand-formatting conventions of the surrounding
# code instead — see README "Building".

all:
	dune build @all

test:
	dune runtest

# Formatting gate: checks only when an ocamlformat binary exists (the
# baked-in toolchain has none — see the header comment), so CI stays
# green everywhere while still catching drift where the tool is present.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt: ocamlformat not installed; skipping (hand-format per README)"; \
	fi

# Where a CI run drops its freshly generated BENCH_<exp>.json files before
# comparing them against the committed copies at the repo root.
BENCH_FRESH := _build/bench-fresh

# Regenerate the CI-scale BENCH files into $(BENCH_FRESH) (committed
# copies stay untouched until `make ci` promotes them).
bench-fresh:
	rm -rf $(BENCH_FRESH) && mkdir -p $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp extsync_lat --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp incr_walk --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp crashtest --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp wear --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp rto --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp adaptive --smoke --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp async_drain --smoke --audit --json-dir $(BENCH_FRESH)
	dune exec bench/main.exe -- --exp multitenant --smoke --json-dir $(BENCH_FRESH)

# Per-metric deltas of the fresh results vs the committed copies
# (informational; the self-gating experiments above are what fail).
bench-diff: bench-fresh
	dune exec bench/bench_diff.exe $(BENCH_FRESH) .

# End-to-end runs of the CLI (about a second each): the serve command in
# both drain modes with its JSON checked by a real parser, and ckpt.
cli:
	dune exec bin/treesls_cli.exe -- serve --tenants 2 -n 100 --json | python3 -m json.tool > /dev/null
	dune exec bin/treesls_cli.exe -- serve --tenants 2 -n 100 --json --eager | python3 -m json.tool > /dev/null
	dune exec bin/treesls_cli.exe -- ckpt

# No process-global mutable state in lib/: every piece of state belongs to
# the system it describes (its store, probe or kernel).  Fails on a
# top-level `let x = ref ...`, `Hashtbl.create`, `Atomic.make` or
# `Domain.DLS.new_key` in lib/**/*.ml.  The one allowed match:
# Probe.last_opener backs Probe.req_current for callers with no probe handle.
GLOBALS_RE := ^let [a-z_][A-Za-z0-9_']*( *:[^=]*)? *= *(ref\b|Hashtbl\.create|Atomic\.make|Domain\.DLS\.new_key)
GLOBALS_ALLOW := ^lib/obs/probe\.ml:[0-9]+:let last_opener
globals:
	@if grep -rnE --include='*.ml' "$(GLOBALS_RE)" lib | grep -vE '$(GLOBALS_ALLOW)'; then \
		echo "globals: top-level mutable state in lib/ (above); give it an owner"; exit 1; \
	else echo "globals: ok"; fi

# One-second run of each perfbench workload (about 25 s in all).  Only its
# correctness checks gate here (read-your-writes, the post-crash key check,
# the audit, simulated repeatability; the script exits nonzero when one
# fails); its timings are too short to compare.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 7 --seconds 1 --trace 0 > /dev/null

ci:
	dune build @all
	$(MAKE) globals
	dune runtest
	$(MAKE) cli
	$(MAKE) fmt
	dune exec bench/main.exe -- --exp smoke --audit
	$(MAKE) perfbench-smoke
	$(MAKE) bench-diff
	cp $(BENCH_FRESH)/BENCH_*.json .

# Full evaluation sweep; drops one BENCH_<exp>.json per experiment.
bench:
	dune exec bench/main.exe -- --json-dir .

# Paranoid run of every experiment: re-audit after each commit/restore.
bench-audit:
	dune exec bench/main.exe -- --audit

.PHONY: all test fmt cli globals perfbench-smoke ci bench bench-fresh bench-diff bench-audit
