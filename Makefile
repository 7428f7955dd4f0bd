# Development targets for the Doppelgänger reproduction.
#
# `race` runs the whole module under the race detector and additionally
# exercises the sweep engine and workloads at GOMAXPROCS 1 and 4, since the
# parallel experiment engine must be correct at any worker count.
# `faults-smoke` proves the fault-injection layer deterministic under the
# race detector, `quality-smoke` does the same for the quality guard (breaker
# property test plus sweep determinism), and `test-interrupt` exercises the
# SIGINT/checkpoint/resume path end to end; all three are folded into `race`.
# `trace-smoke` proves the persistent trace cache end to end under the race
# detector (capture, replay, strict-replay rejection, persist-failure
# degradation, the decoded-capture cache with its digests and LRU eviction
# under memory pressure, output-only cells kept out of that cache; the
# facade's record/replay through the same capture gateway and doppelsim's
# -savetrace/-replay round trip) and is folded into `race` alongside the
# other smokes.
# `chaos-smoke` runs the short-mode chaos soak (cmd/chaossoak) under the race
# detector — corruption/quarantine, SIGKILLed recorders, fault-injecting
# filesystem — and is folded into `race`; the full 50-round soak is
# `go run ./cmd/chaossoak -out BENCH_9.json`.
# `server-smoke` proves the sweep server's robustness layer under the race
# detector — memoized dispatch, shard failover, breaker quarantine, the
# chaos exactly-once/bit-identical proof, the decoded-cache stats and digest
# routing, the trace-cache leak tests, and the sweepd drain/resume end to
# end — and is folded into `race`.
# `loadtest` boots a real sweepd, drives it with cmd/loadgen (10k concurrent
# submissions by default) and regenerates BENCH_8.json.
# `fuzz-smoke` gives each fuzz target a short budget (Go allows one -fuzz
# pattern per package invocation, hence one line per target).
# `bench` runs the paper-table Evaluation benchmarks plus the trace-cache
# sweeps with -benchmem and converts the output into BENCH_10.json via
# cmd/benchjson, joining the committed baseline (bench_baseline_10.txt,
# regenerated by `bench-baseline` with DOPPEL_BENCH_LIVE=1 so the FuncSweep
# rows' speedups are warm-replay versus live kernel execution; the
# FuncSweepDecodedCache row replays through the shared decoded-capture cache).
# `bench-smoke` runs one iteration of each Evaluation benchmark, plus the
# per-layer DGTC decode (MB/s, B/op) and timesim (ns per replayed access)
# microbenchmarks, as a cheap liveness check and is folded into `race`.
# `cover` reports per-package statement coverage and enforces the
# internal/trace floor (the decoder is security-sensitive: 85%) and the
# internal/server floor (the robustness layer: 80%).
# `audit` runs go vet always, plus staticcheck and govulncheck when they are
# installed — missing tools skip with a note instead of failing, so the
# target works in hermetic containers.

GO      ?= go
FUZZTIME ?= 30s
BENCHTIME ?= 2x
BENCHCOUNT ?= 1
LOADN ?= 10000
LOADC ?= 512
EVAL_BENCH = Table2$$|Fig2$$|Fig7$$|Fig8$$|Fig9$$|Fig10$$|Fig11$$|Fig12$$|Fig13$$|Fig14$$|Table3$$|FuncSweep$$|FuncSweepDecodedCache$$

.PHONY: build test race faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke test-interrupt fuzz-smoke bench bench-baseline bench-smoke loadtest cover vet audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke test-interrupt bench-smoke
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -timeout 30m -cpu 1,4 ./internal/sweep/... ./internal/workloads/... ./internal/timesim/...

bench:
	$(GO) test -run xxx -bench '$(EVAL_BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | tee bench_current_10.txt
	$(GO) run ./cmd/benchjson -baseline bench_baseline_10.txt -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -note "make bench" -o BENCH_10.json bench_current_10.txt

bench-baseline:
	DOPPEL_BENCH_LIVE=1 $(GO) test -run xxx -bench '$(EVAL_BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | tee bench_baseline_10.txt

bench-smoke:
	$(GO) test -run xxx -bench '$(EVAL_BENCH)' -benchtime 1x .
	$(GO) test -run xxx -bench 'CaptureDecode$$' -benchmem -benchtime 1x ./internal/trace
	$(GO) test -run xxx -bench 'TimesimRun$$' -benchmem -benchtime 1x ./internal/timesim

faults-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestFaultSweepDeterministic|TestFaultSeedChangesSites' ./internal/sweep/
	$(GO) test -race -run 'TestDeterministicSites|TestModels' ./internal/faults/

quality-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestQualitySweepDeterministic|TestQualityGuard' ./internal/sweep/
	$(GO) test -race -run 'TestBreakerProperty|TestBreakerDeterminism' ./internal/quality/

server-smoke:
	$(GO) test -race -run 'TestSubmitMemoizesAndMatchesSerial|TestKillShardFailsOver|TestBreakerQuarantinesShard|TestChaosExactlyOnceBitIdentical|TestDrainSnapshotsPending|TestHTTPEndpoints|TestServerDecodedCacheAndDigestRouting' ./internal/server/
	$(GO) test -race -run 'TestTraceCacheConcurrentCancelNoLeak|TestTraceCacheForgottenErrorUnderConcurrency' ./internal/sweep/
	$(GO) test -run 'TestDrainResumeByteIdentical' ./cmd/sweepd/

loadtest:
	$(GO) build -o /tmp/doppel-sweepd ./cmd/sweepd
	$(GO) build -o /tmp/doppel-loadgen ./cmd/loadgen
	/tmp/doppel-sweepd -addr 127.0.0.1:8741 -scale 0.02 -only kmeans,inversek2j -shards 4 -shard-workers 2 -quiet & \
	pid=$$!; sleep 1; \
	/tmp/doppel-loadgen -addr 127.0.0.1:8741 -n $(LOADN) -c $(LOADC) -o BENCH_8.json; status=$$?; \
	kill -TERM $$pid; wait $$pid; exit $$status

trace-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestTraceSmoke|TestTraceReplayRequiresCapture|TestTracePersistFailureDegradesLive|TestDecodedCacheHoldsOnlyBaselines' ./internal/sweep/
	$(GO) test -race -run 'TestCapture|TestCursor|TestWriteFile|TestOpenStore|TestQuarantineOneWayDoor|TestVerifyFileModes|TestReadErrorClassification|TestDecodedDigestFields|TestDecodedCache' ./internal/trace/
	$(GO) test -race -run 'TestFacadeTraceRecordReplay|TestFacadeTraceReplayRequiresCapture|TestFacadeCaptureMatchesSweep' .
	$(GO) test -race -run 'TestSaveTraceReplay' ./cmd/doppelsim/

chaos-smoke:
	$(GO) test -race -short -run 'TestChaosSoakShort' ./cmd/chaossoak/

test-interrupt:
	$(GO) test -run 'TestInterruptResume' ./cmd/experiments/
	$(GO) test -run 'TestGangContextCancel|TestGangKernelPanic' ./internal/funcsim/

fuzz-smoke:
	$(GO) test -fuzz=FuzzMapValue$$ -fuzztime=$(FUZZTIME) ./internal/approx
	$(GO) test -fuzz=FuzzSimilarityConsistency$$ -fuzztime=$(FUZZTIME) ./internal/approx
	$(GO) test -fuzz=FuzzRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/bdi
	$(GO) test -fuzz=FuzzDecompressRobustness$$ -fuzztime=$(FUZZTIME) ./internal/bdi
	$(GO) test -fuzz=FuzzDoppelgangerOps$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzTraceRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzTraceFileDecode$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzQuarantineExactlyOnce$$ -fuzztime=$(FUZZTIME) ./internal/workloads
	$(GO) test -fuzz=FuzzCheckpointParse$$ -fuzztime=$(FUZZTIME) ./internal/sweep

cover:
	$(GO) test -cover ./... | tee cover.out
	@awk '$$2 ~ /internal\/trace$$/ { for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) } \
	END { sub(/%/, "", pct); \
	      if (pct == "") { print "cover: no coverage line for internal/trace"; exit 1 } \
	      if (pct + 0 < 85) { printf "cover: internal/trace coverage %s%% is below the 85%% floor\n", pct; exit 1 } \
	      printf "cover: internal/trace at %s%% (floor 85%%)\n", pct }' cover.out; \
	status=$$?; if [ $$status -ne 0 ]; then rm -f cover.out; exit $$status; fi
	@awk '$$2 ~ /internal\/server$$/ { for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) } \
	END { sub(/%/, "", pct); \
	      if (pct == "") { print "cover: no coverage line for internal/server"; exit 1 } \
	      if (pct + 0 < 80) { printf "cover: internal/server coverage %s%% is below the 80%% floor\n", pct; exit 1 } \
	      printf "cover: internal/server at %s%% (floor 80%%)\n", pct }' cover.out; \
	status=$$?; rm -f cover.out; exit $$status

vet:
	$(GO) vet ./...

audit: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "audit: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "audit: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
