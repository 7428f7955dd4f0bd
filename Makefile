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
# degradation, warm error cells that replay no hierarchy, the pinned capture
# identities and seeded results of the cell vocabulary, the file digest and
# the decoded-capture LRU perfbench still uses; the facade's record/replay
# through the same capture gateway and doppelsim's -savetrace/-replay round
# trip) and is folded into `race` alongside the other smokes.
# `chaos-smoke` runs the short-mode chaos soak (cmd/chaossoak) under the race
# detector — corruption/quarantine, SIGKILLed recorders, fault-injecting
# filesystem — and is folded into `race`; the full 50-round soak is
# `go run ./cmd/chaossoak -out BENCH_9.json`.
# `server-smoke` proves the sweep server's robustness layer under the race
# detector — the memoized compute, the chaos exactly-once/bit-identical
# proof, a failed cell that fails alone, queue shedding that spares memo
# hits, a drain that cancels its straggler and answers it 503 over HTTP, a
# figure job that honours its deadline, a checkpoint resume that simulates
# nothing, the trace-dir round trip with its memo hit after recording, the
# trace-cache leak tests, and the sweepd drain/resume end to end — and is
# folded into `race`.
# `fuzz-smoke` gives each fuzz target a short budget (Go allows one -fuzz
# pattern per package invocation, hence one line per target).
# `bench-smoke` runs one iteration of each per-figure benchmark (each fails
# if its experiment's render errors), plus the per-layer set probe (ns per
# cache lookup), DGTC decode (MB/s, B/op), timesim (ns per replayed access)
# and gang handoff (ns per functional access) microbenchmarks, as a cheap
# liveness check and is folded into `race`. Timing end to end and per
# layer is perfbench's job: `bash perfbench/run.sh --workload
# regen-cold|serve-warm ...` (see perfbench/README.md).
# `cover` reports per-package statement coverage and enforces the
# internal/trace floor (the decoder is security-sensitive: 85%) and the
# internal/server floor (the robustness layer: 80%).
# `audit` runs go vet always, plus staticcheck and govulncheck when they are
# installed — missing tools skip with a note instead of failing, so the
# target works in hermetic containers.

GO      ?= go
FUZZTIME ?= 30s
EVAL_BENCH = Table2$$|Fig2$$|Fig7$$|Fig8$$|Fig9$$|Fig10$$|Fig11$$|Fig12$$|Fig13$$|Fig14$$|Table3$$

.PHONY: build test race faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke test-interrupt fuzz-smoke bench-smoke cover vet audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke test-interrupt bench-smoke
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -timeout 30m -cpu 1,4 ./internal/sweep/... ./internal/workloads/... ./internal/timesim/...

bench-smoke:
	$(GO) test -run xxx -bench '$(EVAL_BENCH)' -benchtime 1x .
	$(GO) test -run xxx -bench 'CacheLookup$$' -benchmem -benchtime 1x ./internal/cache
	$(GO) test -run xxx -bench 'CaptureDecode$$' -benchmem -benchtime 1x ./internal/trace
	$(GO) test -run xxx -bench 'TimesimRun$$' -benchmem -benchtime 1x ./internal/timesim
	$(GO) test -run xxx -bench 'GangAccess$$' -benchmem -benchtime 1x ./internal/funcsim

faults-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestFaultSweepDeterministic|TestFaultSeedChangesSites' ./internal/sweep/
	$(GO) test -race -run 'TestDeterministicSites|TestModels' ./internal/faults/

quality-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestQualitySweepDeterministic|TestQualityGuard' ./internal/sweep/
	$(GO) test -race -run 'TestBreakerProperty|TestBreakerDeterminism' ./internal/quality/

server-smoke:
	$(GO) test -race -run 'TestSubmitMemoizesAndMatchesSerial|TestChaosExactlyOnceBitIdentical|TestFailedCellRefusesNoOther|TestQueueSheds|TestDrainCancelsStraggler|TestDrainCancelledJobAnswers503|TestFigureJobHonoursDeadline|TestCheckpointResumeSimulatesNothing|TestHTTPEndpoints|TestServerTraceRoundTrip' ./internal/server/
	$(GO) test -race -run 'TestTraceCacheConcurrentCancelNoLeak|TestTraceCacheForgottenErrorUnderConcurrency' ./internal/sweep/
	$(GO) test -run 'TestDrainResumeByteIdentical' ./cmd/sweepd/

trace-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestTraceSmoke|TestTraceReplayRequiresCapture|TestTracePersistFailureDegradesLive|TestWarmErrorCellsReplayNothing|TestCellIdentitiesPinned' ./internal/sweep/
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
	$(GO) test -fuzz=FuzzSubmitBody$$ -fuzztime=$(FUZZTIME) ./internal/server

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
