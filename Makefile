.PHONY: all build test fmt surface memory bench bench-determinism obs-smoke chaos-smoke fleet-smoke platform-smoke reconfig-smoke robustness robustness-smoke check clean

all: build

build:
	dune build

# Tier-1: the unit suites, which hold every deterministic gate (the
# 0 B/call tick kernels, the DARE, warm-construction and synthesis
# allocation budgets, the Manager.step bytes ratchet, digest and
# state-count pins), plus `perf.exe --smoke` (bench/perf/dune).
test:
	dune runtest

# Formatting gate: dune files must be @fmt-clean (OCaml sources are
# exempt in dune-project — the container carries no ocamlformat).
fmt:
	dune build @fmt

# Public-surface figures: exported values, exports named only in tests,
# ?label: arguments, non-test .ml/.mli/.c lines, test .ml lines, the
# unreferenced exports and the lib modules that only test/ names (exit 1
# when there are any of either; `dune runtest` runs the same gate
# silently).
surface:
	dune build test/surface.exe
	./_build/default/test/surface.exe lib bench bin examples test

# Memory figures, each phase in a process of its own: peak RSS and
# major-heap words after a 600-cell chaos soak, a 1-epoch and a
# 120-epoch 512-node fleet run and the three parts of a synthesis round
# (wide, mono, platforms, each with the MB it allocates), the chaos
# cells' minor-heap and promoted KB per cell, and the fleet's promoted
# KB per epoch, steady (kill rate 0) and with restarts (kill rate 1).
# Printed only: nothing here is pinned or gated.
# Tier-1 gates the fleet's promotion on a smaller fleet instead:
# `test_fleet` "promotion ratchet" bounds the bytes promoted per
# node-epoch, steady and with restarts.
memory:
	dune exec bench/main.exe -- memory

bench:
	dune exec bench/main.exe

robustness:
	dune exec bench/main.exe -- robustness

# Parallel-vs-sequential bench determinism: the bench experiments must
# print byte-identical output whether scenarios run sequentially or
# fan out across domains.  Every experiment's SPECTR_JOBS=1 output is
# also pinned to its committed bench/<name>.expected: the paper figures
# and table (table1, fig3, fig6, fig13, fig14), fig12 (the supervisor's
# nested escaped state names Eval\.Safe.Uncapped, Raise\.Emergency.C1),
# the validation figures fig5 and fig15 (held-out free simulation,
# residual whiteness), and the ablations and robustness tables (the
# supervisor's and the guard's constants, the settable uncapping
# threshold).
bench-determinism:
	dune build bench/main.exe
	SPECTR_JOBS=1 dune exec bench/main.exe -- table1 fig3 fig5 fig6 fig12 fig13 fig14 fig15 > /tmp/spectr-bench-seq.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- table1 fig3 fig5 fig6 fig12 fig13 fig14 fig15 > /tmp/spectr-bench-par.txt
	diff /tmp/spectr-bench-seq.txt /tmp/spectr-bench-par.txt
	for f in table1 fig3 fig5 fig6 fig12 fig13 fig14 fig15 ablations robustness; do \
	  SPECTR_JOBS=1 dune exec bench/main.exe -- $$f > /tmp/spectr-bench-$$f.txt && \
	  diff bench/$$f.expected /tmp/spectr-bench-$$f.txt || exit 1; \
	done

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
# The scenario maps nothing in parallel, so even with SPECTR_JOBS=4 it
# must spawn no worker domain: pool.workers_spawned, counted from the
# start of the command, when --obs turns the layer on, reads 0.
obs-smoke:
	SPECTR_JOBS=4 dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 --obs \
	  --obs-jsonl /tmp/spectr-obs.jsonl > /tmp/spectr-obs.txt
	grep -Eq "pool.workers_spawned +0$$" /tmp/spectr-obs.txt
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
# (spectr_cli exits 3 / 4 otherwise), and the campaign report is
# byte-identical under SPECTR_JOBS=1 and SPECTR_JOBS=4, so a change to
# the invariant monitors is checked for job-count independence too;
# each finding is shrunk to a reproducer in chaos-artifacts/ and
# replayed to pin digest-exact determinism.  CI uploads
# chaos-artifacts/ on failure.
chaos-smoke:
	rm -rf chaos-artifacts
	SPECTR_JOBS=1 dune exec bin/spectr_cli.exe -- chaos --seed 3 --cells 16 \
	  --variants spectr+g,spectr --kinds dropout:power,stuck:power \
	  --fail-on spectr+g --require-violation spectr \
	  --artifact-dir chaos-artifacts > /tmp/spectr-chaos-j1.txt
	SPECTR_JOBS=4 dune exec bin/spectr_cli.exe -- chaos --seed 3 --cells 16 \
	  --variants spectr+g,spectr --kinds dropout:power,stuck:power \
	  --fail-on spectr+g --require-violation spectr \
	  --artifact-dir chaos-artifacts > /tmp/spectr-chaos-j4.txt
	diff /tmp/spectr-chaos-j1.txt /tmp/spectr-chaos-j4.txt
	for f in chaos-artifacts/*.repro; do \
	  dune exec bin/spectr_cli.exe -- replay $$f || exit 1; \
	done

# Fleet smoke: the small fleet bench with its built-in gates — the
# uncoordinated baseline must break the global cap, water-filling must
# hold it (0 violation ticks), and a forced 1-job pool must match a
# forced 4-job pool in-process.  On top of that, the full stdout under
# SPECTR_JOBS=1 and SPECTR_JOBS=4 must be byte-identical — digests,
# floats, everything — which is the cross-process determinism gate —
# and equal to the committed bench/fleet-smoke.expected.
# Its mixed exynos5422/pixel8pro/k3 row builds nodes of a description
# no module initializer touched on the default pool, so the diff also
# covers parallel node construction.
# Then the 8-drill node-kill campaign (~30 ms): each drill checkpoints
# a node, kills it and restarts it from that checkpoint; spectr_cli
# exits non-zero on a failed drill, which fails the target, and the
# report must be byte-identical under SPECTR_JOBS=1 and SPECTR_JOBS=4.
# No other CI step restarts nodes from checkpoints and compares the
# outcome across processes.  What restarts allocate is gated in
# tier-1, not printed only: `test_fleet` "promotion ratchet" runs a
# kill-rate-1 fleet (a restart restores the node's checkpoint into the
# manager it already has) under a promoted-bytes ceiling.
fleet-smoke:
	SPECTR_JOBS=1 dune exec bench/main.exe -- fleet --smoke > /tmp/spectr-fleet-j1.txt
	SPECTR_JOBS=4 dune exec bench/main.exe -- fleet --smoke > /tmp/spectr-fleet-j4.txt
	diff /tmp/spectr-fleet-j1.txt /tmp/spectr-fleet-j4.txt
	diff bench/fleet-smoke.expected /tmp/spectr-fleet-j1.txt
	SPECTR_JOBS=1 dune exec bin/spectr_cli.exe -- fleet --node-kill 8 > /tmp/spectr-node-kill-j1.txt
	SPECTR_JOBS=4 dune exec bin/spectr_cli.exe -- fleet --node-kill 8 > /tmp/spectr-node-kill-j4.txt
	diff /tmp/spectr-node-kill-j1.txt /tmp/spectr-node-kill-j4.txt

# Platform smoke: the data-driven platform layer end to end.  Built-in
# descriptions list and validate (`platforms` digests each one), a
# short scenario runs on every built-in shape (2-cluster board,
# 3-cluster pixel8pro, generated k3), each run's trace CSV is pinned
# byte for byte (the exynos5422 one against the pre-refactor build),
# the case-study synthesis (supervisor, stats, verdicts and the S || G
# closed loop) is pinned by its stdout, against
# bench/synthesize.expected, and by its DOT file's md5, and every file
# in the malformed-CSV corpus is rejected with exit code 2 and a
# line-numbered parse error.  The manager catalogue's one placement
# rule: the hand-tuned FS and SISO are refused off exynos5422 with exit
# code 1, while guarded SPECTR runs on pixel8pro.  `spectr_cli identify`
# runs on each of its four named subsystems (big-2x2, little-2x2,
# fs-4x2, large-10x10), its stdout diffed against the committed
# bench/identify.expected, and a zero length, a zero order and an
# unknown subsystem must each exit 1 with the library's message.
platform-smoke:
	dune exec bin/spectr_cli.exe -- platforms
	dune exec bin/spectr_cli.exe -- platforms --platform pixel8pro
	dune exec bin/spectr_cli.exe -- synthesize --closed-loop \
	  --dot /tmp/spectr-synthesize.dot > /tmp/spectr-synthesize.txt
	diff bench/synthesize.expected /tmp/spectr-synthesize.txt
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform exynos5422 --csv /tmp/spectr-platform-exynos.csv > /dev/null
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform pixel8pro --csv /tmp/spectr-platform-pixel8pro.csv > /dev/null
	dune exec bin/spectr_cli.exe -- scenario -m spectr -b x264 \
	  --platform k3 --csv /tmp/spectr-platform-k3.csv > /dev/null
	printf '%s  %s\n' \
	  ab3b5b5ef6ec4920c18d5f0a4117cbc1 /tmp/spectr-platform-exynos.csv \
	  817c44759c3f8322c3ead7d40e2b6d79 /tmp/spectr-platform-pixel8pro.csv \
	  e80a2e63f4f235f1410275bb7183ab98 /tmp/spectr-platform-k3.csv \
	  c3aadf5fd4dd1c160f230f6ed243d19c /tmp/spectr-synthesize.dot \
	  | md5sum -c -
	dune exec bin/spectr_cli.exe -- scenario -m spectr+g -b x264 \
	  --platform pixel8pro > /dev/null
	for mp in fs:pixel8pro siso:k3; do \
	  m=$${mp%%:*}; p=$${mp#*:}; \
	  dune exec bin/spectr_cli.exe -- scenario -m $$m --platform $$p \
	    > /dev/null 2> /tmp/spectr-platform-refused.txt; \
	  code=$$?; \
	  [ $$code -eq 1 ] && grep -q 'hand-tuned for exynos5422' \
	    /tmp/spectr-platform-refused.txt || \
	    { echo "$$m on $$p: expected refusal with exit 1, got $$code"; exit 1; }; \
	done
	for f in test/platforms/bad/*.csv; do \
	  dune exec bin/spectr_cli.exe -- platforms --platform $$f; \
	  code=$$?; \
	  [ $$code -eq 2 ] || { echo "$$f: expected exit 2, got $$code"; exit 1; }; \
	done
	for s in big-2x2 little-2x2 fs-4x2 large-10x10; do \
	  dune exec bin/spectr_cli.exe -- identify $$s || exit 1; \
	done > /tmp/spectr-identify.txt
	diff bench/identify.expected /tmp/spectr-identify.txt
	for a in "-n 0" "--order 0" "bogus-2x2"; do \
	  dune exec bin/spectr_cli.exe -- identify $$a > /dev/null; \
	  code=$$?; \
	  [ $$code -eq 1 ] || { echo "identify $$a: expected exit 1, got $$code"; exit 1; }; \
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

# Every gate in one command.  CI runs the same targets, one step each.
check: build fmt test surface bench-determinism obs-smoke chaos-smoke fleet-smoke platform-smoke reconfig-smoke robustness-smoke

clean:
	dune clean
