# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race lint lint-vettool bench bench-compare bench-replay cluster fullscale-smoke fullgrid-smoke fullgrid-resume-smoke fuzz check

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repository's own static-analysis suite (see internal/lint
# and DESIGN.md §6). A finding is a build failure; allowlist intentional
# exceptions with `//schedlint:ignore <analyzer> <reason>` — the
# unusedignore analyzer deletes-or-justifies every such entry.
lint:
	$(GO) run ./cmd/schedlint ./...

# lint-vettool exercises the same analyzers through the go vet driver,
# which caches per-package results in the build cache; cross-package
# taint summaries travel through vet's facts files.
lint-vettool:
	$(GO) build -o $(CURDIR)/bin/schedlint ./cmd/schedlint
	$(GO) vet -vettool=$(CURDIR)/bin/schedlint ./...

# lint-json emits the findings as a JSON array (file, line, analyzer,
# message, and simtime taint traces); CI uploads bin/schedlint.json as an
# artifact on every run.
lint-json:
	@mkdir -p bin
	$(GO) run ./cmd/schedlint -json ./... | tee bin/schedlint.json

# lint-new reports only findings absent from the committed baseline
# (.schedlint-baseline.json, currently empty — the tree is clean). Useful
# on long-running branches; regenerate the baseline from `make lint-json`
# output when an accepted debt is deliberately carried.
lint-new:
	$(GO) run ./cmd/schedlint -baseline .schedlint-baseline.json ./...

bench:
	$(GO) run ./cmd/schedbench -benchjson BENCH_sim.json

# bench-compare diffs two benchmark reports and fails on any figure that
# regressed by more than 10% (see cmd/benchdiff for the direction rules).
# Default: the committed BENCH_sim.json against a freshly measured one.
# Override either side: make bench-compare BENCH_OLD=a.json BENCH_NEW=b.json
BENCH_OLD ?= BENCH_sim.json
BENCH_NEW ?= bin/BENCH_new.json
bench-compare:
	@mkdir -p bin
	@if [ ! -f "$(BENCH_NEW)" ]; then $(GO) run ./cmd/schedbench -benchjson $(BENCH_NEW); fi
	$(GO) run ./cmd/benchdiff $(BENCH_OLD) $(BENCH_NEW)

# bench-replay gates the record/replay subsystem: the live-vs-replay
# equivalence suite must actually run and pass (the grep rejects a log
# where it was skipped or filtered away), and a quick Fig. 8 grid must
# resolve at least half of its cells from the trace cache, recording
# into bin/replay_tc. A second grid over the same directory must replay
# every cell (-mintracehit 100), adopting recordings from disk, and
# write a byte-identical fig8.csv.
bench-replay:
	@mkdir -p bin
	$(GO) test ./internal/exp/ -run TestLiveReplayEquivalence -count=1 -v > bin/replay_equiv.log 2>&1 || { cat bin/replay_equiv.log; exit 1; }
	grep -q -- "--- PASS: TestLiveReplayEquivalence" bin/replay_equiv.log
	rm -rf bin/replay_tc bin/replay_cold bin/replay_warm
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -tracecache bin/replay_tc -mintracehit 50 -csv bin/replay_cold
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -tracecache bin/replay_tc -mintracehit 100 -csv bin/replay_warm > bin/replay_warm.log \
		|| { cat bin/replay_warm.log; exit 1; }
	@grep '^# trace cache:' bin/replay_warm.log
	@grep -Eq '^# trace cache: .*\([1-9][0-9]* from disk\)' bin/replay_warm.log \
		|| { echo "bench-replay: the warm grid adopted no recording from disk"; exit 1; }
	diff -u bin/replay_cold/fig8.csv bin/replay_warm/fig8.csv
	@echo "bench-replay: warm grid replayed every cell from disk with an identical fig8.csv"

# cluster gates the multi-machine serving subsystem: the determinism
# suite (cluster-of-1 bit-identity, advance-order invariance, the pinned
# sweep golden) must pass under the race detector, then a quick-profile
# sweep runs end to end through the CLI.
cluster:
	$(GO) test -race -count=2 -run 'TestCluster|TestAffinityLocality|TestGoldenCluster' ./internal/cluster/ ./internal/exp/
	$(GO) run ./cmd/schedbench -profile quick -experiment cluster

# fullscale-smoke proves shard-count invariance through the CLI exactly
# the way the CI job does: one ×4-scale grid cell streamed and sharded at
# -shards 1 and -shards 2 must print identical fingerprint= lines and
# identical sim: lines — replay_wall comes from the unsharded replay that
# runs concurrently with the sharded one, the rest from the sharded one.
fullscale-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 1 > bin/cell_s1.log
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 2 > bin/cell_s2.log
	@f1=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_s1.log`; \
	f2=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_s2.log`; \
	s1=`grep 'sim: replay_wall=[0-9]* sharded_wall=[0-9]* l3_misses=[0-9]* stall=[0-9]*' bin/cell_s1.log`; \
	s2=`grep 'sim: replay_wall=[0-9]* sharded_wall=[0-9]* l3_misses=[0-9]* stall=[0-9]*' bin/cell_s2.log`; \
	echo "shards=1: $$f1"; echo "shards=2: $$f2"; \
	echo "shards=1:$$s1"; echo "shards=2:$$s2"; \
	test -n "$$f1" && test "$$f1" = "$$f2" && test -n "$$s1" && test "$$s1" = "$$s2" \
		&& echo "fullscale-smoke: fingerprints and sim: lines identical across shard counts"

# fullgrid-smoke proves the record-once grid contract through the CLI the
# way the CI job does: a ×4-scale 2-scheduler × 2-bandwidth grid must
# perform exactly one recording (recordings=1 in the summary line), and
# its sb cell at full bandwidth must print the same fingerprint as the
# standalone cell experiment — shared recordings and grid concurrency
# never reach simulated results.
fullgrid-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/schedbench -experiment fullgrid -profile x4 -kernels RRM -scheds sb,sbd -bands 4,1 -shards 2 -gridworkers 2 > bin/fullgrid.log
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 2 > bin/cell_ref.log
	@grep -q 'recordings=1 ' bin/fullgrid.log \
		|| { echo "fullgrid-smoke: grid did not record exactly once"; grep 'fullgrid:' bin/fullgrid.log; exit 1; }
	@fg=`awk '/^fullscale cell RRM\/sb .* links=4$$/{want=1} want && /fingerprint=/{print; exit}' bin/fullgrid.log | grep -o 'fingerprint=[0-9a-f]*'`; \
	fc=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_ref.log`; \
	echo "grid: $$fg"; echo "cell: $$fc"; \
	test -n "$$fg" && test "$$fg" = "$$fc" \
		&& echo "fullgrid-smoke: grid fingerprint matches the cell path"

# fullgrid-resume-smoke proves the supervisor's crash-safe resume
# contract through the CLI the way the CI job does: a journaled ×4 grid
# is SIGTERMed after its first cell completes and must exit with the
# resumable code (3); a -resume run must restore the journaled cells
# (resumed= in the supervisor line) and print fingerprint lines
# identical to an uninterrupted run over the same recordings.
RESUME_DIR := bin/resume_run
RESUME_FLAGS := -experiment fullgrid -profile x4 -kernels RRM -scheds sb,sbd -bands 4,1 -shards 2 -gridworkers 1
fullgrid-resume-smoke:
	@mkdir -p bin
	rm -rf $(RESUME_DIR) bin/interrupted.log bin/resume.log bin/clean.log
	$(GO) build -o bin/schedbench ./cmd/schedbench
	@./bin/schedbench $(RESUME_FLAGS) -v -rundir $(RESUME_DIR) > bin/interrupted.log 2>&1 & \
	pid=$$!; \
	for i in `seq 1 180`; do \
		grep -q '^# done' bin/interrupted.log && break; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 1; \
	done; \
	grep -q '^# done' bin/interrupted.log || { echo "fullgrid-resume-smoke: no cell completed before timeout"; cat bin/interrupted.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	test $$code -eq 3 || { echo "fullgrid-resume-smoke: interrupted run exited $$code, want 3"; cat bin/interrupted.log; exit 1; }; \
	echo "fullgrid-resume-smoke: interrupted run exited resumable (3)"
	@./bin/schedbench $(RESUME_FLAGS) -v -rundir $(RESUME_DIR) -resume > bin/resume.log 2>&1 \
		|| { echo "fullgrid-resume-smoke: resume failed"; cat bin/resume.log; exit 1; }
	@grep -q 'resumed=[1-9]' bin/resume.log \
		|| { echo "fullgrid-resume-smoke: resume restored no cells"; grep supervisor bin/resume.log; exit 1; }
	@./bin/schedbench $(RESUME_FLAGS) -tracecache $(RESUME_DIR)/traces > bin/clean.log 2>&1 \
		|| { echo "fullgrid-resume-smoke: clean run failed"; cat bin/clean.log; exit 1; }
	@grep -o 'fingerprint=[0-9a-f]*' bin/resume.log | sort > bin/resume_fp.txt; \
	grep -o 'fingerprint=[0-9a-f]*' bin/clean.log | sort > bin/clean_fp.txt; \
	test -s bin/resume_fp.txt \
		&& diff -u bin/resume_fp.txt bin/clean_fp.txt \
		&& echo "fullgrid-resume-smoke: resumed fingerprints identical to the uninterrupted run"

# fuzz smoke-runs the codec fuzz targets for a few seconds each (go test
# accepts exactly one -fuzz pattern per invocation, hence one run per
# target): the opcode varint codecs, the framed-trace stream decoder, the
# cache hierarchy and the replay interpreter's multi-op scripts against
# the naive reference LRU model, and the
# //schedlint: directive parser (malformed directives must parse into
# findings, never panic or silently grant exemptions). Corpus additions
# land under <pkg>/testdata/fuzz/.
fuzz:
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzUvarintRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzUvarintDecode$$' -fuzztime 5s
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzZigzagRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/dagtrace/ -run '^$$' -fuzz '^FuzzFramedDecode$$' -fuzztime 5s
	$(GO) test ./internal/cachesim/ -run '^$$' -fuzz '^FuzzCacheVsReference$$' -fuzztime 5s
	$(GO) test ./internal/cachesim/ -run '^$$' -fuzz '^FuzzScriptVsReference$$' -fuzztime 5s
	$(GO) test ./internal/runlog/ -run '^$$' -fuzz '^FuzzRunlogDecode$$' -fuzztime 5s
	$(GO) test ./internal/lint/analysis/ -run '^$$' -fuzz '^FuzzDirective$$' -fuzztime 5s

# check is the full pre-push gate: everything CI enforces that can run
# offline (staticcheck and govulncheck need their pinned tools installed;
# see ci.yml).
check: build race lint
