# Convenience targets over dune. `make bench` regenerates the paper's
# tables and runs the micro-benchmarks (bench/main.ml); the repository
# benchmark is `python3 perfbench/run.py` (BENCHMARK.json).
# `make lint` runs the abstract-interpretation linter over every
# bundled engine version against the checked-in baseline. `make chaos`
# is the standalone soak via the CLI; `make trace` records a
# verification trace and renders it. `make fuzz` is the seeded
# solver-fuzz smoke battery (random CNFs and LIA conjunctions, CDCL
# vs. a reference evaluator); `make fuzz-wire` is its RFC 1035
# decoder twin (every typed guard must fire, nothing may escape).
# `make serve` runs a UDP authoritative loop on port 5300; `make
# loadgen` fires the default mixed load (10% malformed) at it.

.PHONY: all build check test lint bench fuzz fuzz-wire \
	serve loadgen chaos trace clean

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

lint:
	dune exec bin/dnsv_cli.exe -- lint --baseline lint_baseline.json

bench:
	dune exec bench/main.exe

fuzz:
	dune exec test/fuzz_solver.exe -- 2000

fuzz-wire:
	dune exec test/fuzz_wire.exe -- 5000

serve:
	dune exec bin/dnsv_cli.exe -- serve --port 5300

loadgen:
	dune exec bin/dnsv_cli.exe -- loadgen --port 5300

chaos:
	dune exec bin/dnsv_cli.exe -- chaos --plans 200 --seed 1

trace:
	dune exec bin/dnsv_cli.exe -- verify --trace trace.json
	dune exec bin/dnsv_cli.exe -- report trace.json --validate-layers

clean:
	dune clean
