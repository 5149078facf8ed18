.PHONY: all build test fmt bench bench-smoke obs-smoke chaos-smoke fleet-smoke platform-smoke synth-smoke reconfig-smoke robustness robustness-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting gate: dune files must be @fmt-clean (OCaml sources are
# exempt in dune-project — the container carries no ocamlformat).
fmt:
	dune build @fmt

bench:
	dune exec bench/main.exe

# One small synthesis-scale cell plus the throughput gates (0 B/call
# steady-state allocation of the tick kernels, 0 B per Riccati.solve
# value-iteration step of gain design, at most 64 KiB per warm manager
# or fleet-node construction, at most half the earlier engine's bytes
# per transition for supcon_modular ~jobs:1 on the k=8 cap=7 family
# and for Compose.all of 8 clusters, at most 117.7 B per transition on
# the calling domain for supcon_modular ~jobs:2 on the same family,
# batch-vs-one-shot trace digest agreement), timing columns suppressed
# — the shape check CI runs (see .github/workflows/ci.yml).
bench-smoke:
	dune exec bench/main.exe -- synthesis-scale throughput --smoke

robustness:
	dune exec bench/main.exe -- robustness

# Robustness smoke: the SPECTR+G acceptance table (seven fault classes x
# four managers on x264).  SPECTR+G must recover in every fault class
# while unguarded SPECTR is fooled at least once (the PASS line), and
# stdout must be byte-identical under SPECTR_JOBS=1 and SPECTR_JOBS=4.
robustness-smoke:
	SPECTR_JOBS=1 dune exec bench/main.exe -- robustness > /tmp/spectr-robustness-j1.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- robustness > /tmp/spectr-robustness-j4.txt
	diff /tmp/spectr-robustness-j1.txt /tmp/spectr-robustness-j4.txt
	grep -q '^  PASS$$' /tmp/spectr-robustness-j4.txt

# Observability smoke: run a scenario with the obs layer on, check the
# load-bearing counters are nonzero and the exported decision log is
# non-empty, well-formed JSONL (parse validated when python3 exists).
obs-smoke:
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 --obs \
	  --obs-jsonl /tmp/spectr-obs.jsonl > /tmp/spectr-obs.txt
	grep -Eq "supervisor.steps +[1-9]" /tmp/spectr-obs.txt
	grep -Eq "supervisor.events_fired +[1-9]" /tmp/spectr-obs.txt
	grep -Eq "synth_cache.misses +[1-9]" /tmp/spectr-obs.txt
	test -s /tmp/spectr-obs.jsonl
	if command -v python3 >/dev/null; then \
	  python3 -c "import json,sys; [json.loads(l) for l in open('/tmp/spectr-obs.jsonl')]"; \
	fi

# Chaos smoke: a fixed-seed 16-cell campaign of power-sensor faults
# against guarded and unguarded SPECTR.  Passes only when SPECTR+G
# survives every cell AND unguarded SPECTR violates at least once
# (spectr_cli exits 3 / 4 otherwise); each finding is shrunk to a
# reproducer in chaos-artifacts/ and replayed to pin digest-exact
# determinism.  CI uploads chaos-artifacts/ on failure.
chaos-smoke:
	rm -rf chaos-artifacts
	dune exec bin/spectr_cli.exe -- chaos --seed 3 --cells 16 \
	  --variants spectr+g,spectr --kinds dropout:power,stuck:power \
	  --fail-on spectr+g --require-violation spectr \
	  --artifact-dir chaos-artifacts
	for f in chaos-artifacts/*.repro; do \
	  dune exec bin/spectr_cli.exe -- replay $$f || exit 1; \
	done

# Fleet smoke: the small fleet bench with its built-in gates — the
# uncoordinated baseline must break the global cap, water-filling must
# hold it (0 violation ticks), and a forced 1-job pool must match a
# forced 4-job pool in-process.  On top of that, the full stdout under
# SPECTR_JOBS=1 and SPECTR_JOBS=4 must be byte-identical — digests,
# floats, everything — which is the cross-process determinism gate.
# Its mixed exynos5422/pixel8pro/k3 row builds nodes of a description
# no module initializer touched on the default pool, so the diff also
# covers parallel node construction.
fleet-smoke:
	SPECTR_JOBS=1 dune exec bench/main.exe -- fleet --smoke > /tmp/spectr-fleet-j1.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- fleet --smoke > /tmp/spectr-fleet-j4.txt
	diff /tmp/spectr-fleet-j1.txt /tmp/spectr-fleet-j4.txt

# Parallel-synthesis smoke: the sharded engine at 1 and 4 jobs is pinned
# byte-identical to supcon (digest + stats gates inside the bench), and
# the whole smoke output must not depend on SPECTR_JOBS.
# Includes one mid-size modular row under a wall-clock budget.
synth-smoke:
	SPECTR_JOBS=1 dune exec bench/main.exe -- synthesis-scale --smoke > /tmp/spectr-synth-j1.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- synthesis-scale --smoke > /tmp/spectr-synth-j4.txt
	diff /tmp/spectr-synth-j1.txt /tmp/spectr-synth-j4.txt
	grep -Eq '^ +4 +3 +81 +89 +33$$' /tmp/spectr-synth-j4.txt
	grep -q 'isomorphic to monolithic at jobs=1 and 4' /tmp/spectr-synth-j4.txt
	grep -q 'modular k=10 cap=6: product 39045, supervisor 12585' /tmp/spectr-synth-j4.txt

# Platform smoke: the data-driven platform layer end to end.  Built-in
# descriptions list and validate (`platforms` digests each one), a
# short scenario runs on every built-in shape (2-cluster board,
# 3-cluster pixel8pro, generated k3), the exynos5422 trace CSV is
# pinned byte-for-byte against the pre-refactor build, and every file
# in the malformed-CSV corpus is rejected with exit code 2 and a
# line-numbered parse error.
platform-smoke:
	dune exec bin/spectr_cli.exe -- platforms
	dune exec bin/spectr_cli.exe -- platforms --platform pixel8pro
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform exynos5422 --csv /tmp/spectr-platform-exynos.csv > /dev/null
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform pixel8pro > /dev/null
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform k3 > /dev/null
	echo "ab3b5b5ef6ec4920c18d5f0a4117cbc1  /tmp/spectr-platform-exynos.csv" \
	  | md5sum -c -
	for f in test/platforms/bad/*.csv; do \
	  dune exec bin/spectr_cli.exe -- platforms --platform $$f; \
	  code=$$?; \
	  [ $$code -eq 2 ] || { echo "$$f: expected exit 2, got $$code"; exit 1; }; \
	done

# Reconfiguration smoke: degraded-mode self-healing end to end.
# Part 1 — the reconfig bench table (exynos cells only under --smoke):
# SPECTR+R must end every permanent-fault cell reconfigured with
# bounded excess while SPECTR+G is left in open-loop fallback with a
# >2x QoS gap (the PASS line), and stdout must be byte-identical under
# SPECTR_JOBS=1 and 4 (re-synthesis wall times go to stderr).
# Part 2 — a fixed-seed chaos campaign in which EVERY cell latches one
# permanent fault: SPECTR+R must stay invariant-clean (exit 3
# otherwise), every cell must end on the reconfigured rung of the FDIR
# ladder, and the campaign summary must also be job-count-independent.
# Part 3 — the same campaign with kill drills in half the cells: a
# SPECTR+R manager killed and restored from its checkpoint at any rung
# must still be invariant-clean and end all 12 cells reconfigured, with
# a job-count-independent summary.
# Findings (if any) are shrunk into reconfig-artifacts/, which CI
# uploads on failure.
reconfig-smoke:
	SPECTR_JOBS=1 dune exec bench/main.exe -- reconfig --smoke 2>/dev/null > /tmp/spectr-reconfig-j1.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- reconfig --smoke 2>/dev/null > /tmp/spectr-reconfig-j4.txt
	diff /tmp/spectr-reconfig-j1.txt /tmp/spectr-reconfig-j4.txt
	grep -q '^  PASS' /tmp/spectr-reconfig-j4.txt
	rm -rf reconfig-artifacts
	SPECTR_JOBS=1 dune exec bin/spectr_cli.exe -- chaos --seed 11 --cells 12 \
	  --variants spectr+r --kinds spike:qos:4 --max-faults 1 --kill-prob 0 \
	  --reconfig-prob 1 --fail-on spectr+r --artifact-dir reconfig-artifacts \
	  > /tmp/spectr-reconfig-chaos-j1.txt
	SPECTR_JOBS=4 dune exec bin/spectr_cli.exe -- chaos --seed 11 --cells 12 \
	  --variants spectr+r --kinds spike:qos:4 --max-faults 1 --kill-prob 0 \
	  --reconfig-prob 1 --fail-on spectr+r --artifact-dir reconfig-artifacts \
	  > /tmp/spectr-reconfig-chaos-j4.txt
	diff /tmp/spectr-reconfig-chaos-j1.txt /tmp/spectr-reconfig-chaos-j4.txt
	grep -q 'reconfig drills: 12 SPECTR+R cells — 12 end reconfigured' \
	  /tmp/spectr-reconfig-chaos-j4.txt
	SPECTR_JOBS=1 dune exec bin/spectr_cli.exe -- chaos --seed 11 --cells 12 \
	  --variants spectr+r --kinds spike:qos:4 --max-faults 1 --kill-prob 0.5 \
	  --reconfig-prob 1 --fail-on spectr+r --artifact-dir reconfig-artifacts \
	  > /tmp/spectr-reconfig-kill-j1.txt
	SPECTR_JOBS=4 dune exec bin/spectr_cli.exe -- chaos --seed 11 --cells 12 \
	  --variants spectr+r --kinds spike:qos:4 --max-faults 1 --kill-prob 0.5 \
	  --reconfig-prob 1 --fail-on spectr+r --artifact-dir reconfig-artifacts \
	  > /tmp/spectr-reconfig-kill-j4.txt
	diff /tmp/spectr-reconfig-kill-j1.txt /tmp/spectr-reconfig-kill-j4.txt
	grep -q 'reconfig drills: 12 SPECTR+R cells — 12 end reconfigured' \
	  /tmp/spectr-reconfig-kill-j4.txt

# What CI runs.
check: build fmt test obs-smoke chaos-smoke fleet-smoke platform-smoke synth-smoke reconfig-smoke robustness-smoke

clean:
	dune clean
