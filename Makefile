# Developer entry points. `make check` is the tier-1 gate (format + build +
# vet + tests); `make bench` emits the hot-path benchmarks in
# benchstat-comparable form (set COUNT=10 and pipe two runs into benchstat
# to compare; CI's bench-smoke job runs COUNT=1 BENCHTIME=100ms so the
# benchmarks themselves cannot rot unnoticed).

GO        ?= go
COUNT     ?= 5
BENCHTIME ?= 1s
# The serving benchmark measures closed-loop rounds over loopback TCP;
# a fixed round count keeps its samples/sec numbers comparable across
# runs (time-based -benchtime would vary the round count with load).
SERVE_BENCHTIME ?= 200x
# The wire benchmark opens up to 1024 real TCP connections per
# sub-benchmark; a smaller fixed round count keeps the full sweep short
# while still averaging thousands of requests per data point.
WIRE_BENCHTIME ?= 20x
# The sparse serving benchmark pays one dense full-solve per round at
# the paper's 256-bit parameter (~0.3 s each); a small fixed round
# count keeps the dense leg honest without dominating the suite.
SPARSE_BENCHTIME ?= 10x
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
DEADCODE_VERSION    ?= v0.30.0

# Native fuzzing budget per target for `make fuzz-smoke`, and the packages
# whose Fuzz* targets it runs.
FUZZTIME ?= 10s
FUZZ_PKGS ?= ./internal/wire/ ./internal/dlog/ ./internal/group/ ./internal/feip/

.PHONY: check fmt-check build vet staticcheck govulncheck deadcode test race chaos fuzz-smoke bench loc cores

check: fmt-check build vet staticcheck test

# Formatting gate: CI fails the build when gofmt would rewrite anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tool is pinned in CI; locally the target
# skips with a hint when the binary is absent, so `make check` works on a
# fresh machine without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan over the module's call graph. Pinned in CI;
# locally the target skips with a hint when the binary is absent, same
# pattern as staticcheck.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Unreachable-function scan over every internal package but nn: anything no
# binary (cmd/, examples/, benchmark/) can reach is deleted, or moved into a
# _test.go file when only tests need it. nn stays out for nn.Load (with
# layerFrom, checkParams and NewReLU), which reads back the checkpoints
# cryptonn-server -save writes; only cli_test.go calls it so far.
# Any output fails the target.
# Pinned in CI; skips locally with a hint when the binary is absent, same
# pattern as staticcheck.
deadcode:
	@if command -v deadcode >/dev/null 2>&1; then \
		out="$$(deadcode -filter 'cryptonn/internal/(authority|core|dlog|experiments|febo|feip|fixedpoint|group|mnist|par|securemat|service|tensor|thresh|wire)' ./...)"; \
		if [ -n "$$out" ]; then echo "unreachable functions:"; echo "$$out"; exit 1; fi; \
	else \
		echo "deadcode not installed; skipping (go install golang.org/x/tools/cmd/deadcode@$(DEADCODE_VERSION))"; \
	fi

test:
	$(GO) test ./...

# The one size counter simplicity PRs quote: non-test .go lines (wc -l, so
# comments and blanks count) per internal/ package, then for cmd/, examples/
# and the whole module outside the frozen benchmark/. Lines moved into
# _test.go files leave this count without leaving the repo — say so when
# quoting a before/after.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }; \
	for d in internal/*/ cmd examples; do printf '%-24s %6d\n' "$${d%/}" "$$(count $$d)"; done; \
	printf '%-24s %6d\n' 'total (no benchmark/)' "$$(count . -not -path './benchmark/*' -not -path './.bench_build/*')"

# The engine's thread-safety contract (shared tables, one solver, one
# Montgomery context across many goroutines) under the race detector,
# plus the worker helper every parallel loop runs on, the trainer's secure
# steps on that engine, the wire layer's coalescing dispatcher hammer and
# the threshold cluster (DKG, quorum fan-out, concurrent partial-key
# requests). Every loop follows GOMAXPROCS, so each test runs at GOMAXPROCS 1,
# 2 and 4: the sequential path, the two cores of the reference box, and more
# workers than most products have columns.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/par/ ./internal/group/ ./internal/feip/ ./internal/febo/ \
		./internal/dlog/ ./internal/securemat/ \
		./internal/core/ ./internal/thresh/ ./internal/authority/ \
		./internal/wire/ ./internal/service/

# The five benchmark workloads on one core and on every core, side by side:
# GOMAXPROCS is the Go runtime's own variable, so nothing in benchmark/ knows.
# One untraced run each (CORES_SECONDS long, seed CORES_SEED); for a claim,
# use `benchmark -workload all -runs N` and `-compare` instead.
CORES_SECONDS ?= 10
CORES_SEED    ?= 1
cores:
	@printf '%-12s %-16s %12s %12s\n' workload metric GOMAXPROCS=1 default; \
	for w in train_mlp train_cnn serve_dense serve_topk keys_quorum; do \
		one="$$(GOMAXPROCS=1 bash benchmark/run.sh --workload $$w --seed $(CORES_SEED) --seconds $(CORES_SECONDS) --trace 0)" || exit 1; \
		all="$$(bash benchmark/run.sh --workload $$w --seed $(CORES_SEED) --seconds $(CORES_SECONDS) --trace 0)" || exit 1; \
		for m in samples_per_s setup_s rss_mb comm_kb_per_op; do \
			printf '%-12s %-16s %12s %12s\n' $$w $$m \
				"$$(echo "$$one" | awk -v m=$$m '$$1 == m {print $$2}')" \
				"$$(echo "$$all" | awk -v m=$$m '$$1 == m {print $$2}')"; \
		done; \
	done

# Fault-injection and robustness suites: the faultconn wrappers (drop /
# truncate / reset mid-stream), quorum behaviour against slow, dead, and
# corrupting nodes, and the chaos test that kills N-T cluster nodes in
# the middle of encrypted training and requires bit-identical weights.
chaos:
	$(GO) test -count 1 -run 'TestChaos|TestFault|TestQuorum|TestNodeServer|TestPartialProofs' \
		-v ./internal/wire/

# A short native-fuzzing pass over every fuzz target of FUZZ_PKGS. The wire
# targets (seeded from the golden frames): decoders must not panic, must
# allocate in proportion to their input, and must re-encode what they accept
# canonically. The dlog target: a look-up returns x itself inside the bound
# and ErrNotFound outside it, for any bound and any exponent. The group
# targets: the 256-bit Montgomery product MulMont selects (the assembly kernel
# on amd64 CPUs with ADX) matches the generic CIOS loop limb for limb, the
# 8-lane IFMA product matches MulMont lane by lane and the many-rows
# multi-exponentiation's lane body matches its scalar body on random
# supports, weights and bases, and MultiExp's Straus lane body matches its
# scalar body and Π Exp on 1–40 bases under exponents of 1–256 bits, zero,
# negative and ≥ Q included (all three skip on CPUs without IFMA), the
# shared-squaring engine for bases seen once matches Params.Exp on random
# bases and exponent sets, and the Legendre-symbol IsElement agrees with
# a^Q mod P == 1 on any input at every embedded width. The feip target: a
# function key derived on the secret's limbs equals Σ y_i·s_i mod Q summed
# in math/big, for any int64 weights at every embedded width.
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$target for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Hot-path benchmarks: group-level multiplication/exponentiation atoms
# (the variable-base ExpMont at 256 bits; dense + sparse MultiExp, the
# Straus body on each kernel at the key plane's shapes, 3 × 256 to
# 640 × 128 bases × exponent bits, behind the lane crossover, and — under
# the same BenchmarkMultiExp pattern —
# BenchmarkMultiExpRows, the shapes × digit-width sweep behind the many-rows
# window rule; the two calibrated-constant sweeps; the derive
# cost of every long-lived table; the membership check at three widths), FEIP primitive costs (sequential +
# shared-key parallel + coordinate-form sparse encryption, key derivation,
# decryption), FEBO primitive costs (encryption, key derivation, the
# threshold client's key completion and decryption, every op at 64 and 256
# bits), the FEBO key batch of one training step (80 commitments raised to one
# secret: a threshold node's partials with their proof and the single
# authority's keys, on the lane kernel, on the scalar kernel and by the
# ExpMont ladder per commitment they replaced), the dlog
# solver (table build + look-up cost curve over |x| + shared-table parallel
# + the top-k descending scan), the securemat batched encrypt/decrypt pipelines
# (the worker-count sweeps at 256 bits on the benchmark workloads' shapes, and the
# sparse key requests' in-flight window), one secure training step at the
# training workloads' shapes (the source of securemat/doc.go's step profile), one
# secure prediction at serve_dense's shape (widths 1, 4 and 8, with its
# allocations: the serving rounds' steady state on a fixed W), the
# prediction-serving throughput engine (coalesced vs serial over
# loopback TCP), the wire connection-count sweep, the sparse serving sweep (dense full-solve vs
# coordinate-form full ranking vs top-k at the 256-bit parameter), the
# batched DLEQ prover and verifier and the quorum client's batch combination
# at one training step's 80 FEBO elements, the threshold-quorum key-derivation overhead vs a single
# authority and the quorum's FEBO key batch, and the end-to-end sparse
# multi-label (ICD) sweep.
# The paper's figures themselves are cryptonn-bench's, not benchmarks here.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkExp$$|BenchmarkExpMont$$|BenchmarkFixedBasePow|BenchmarkMultiExp|BenchmarkPowGInt64|BenchmarkMulMont|BenchmarkEphemeralWindow|BenchmarkKeyCombGeometry|BenchmarkPrecompute|BenchmarkIsElement' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/group/
	$(GO) test -run '^$$' -bench 'BenchmarkEncrypt|BenchmarkKeyDerive|BenchmarkDecrypt' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/feip/
	$(GO) test -run '^$$' -bench 'BenchmarkEncrypt|BenchmarkKeyDerive|BenchmarkCompleteKey|BenchmarkDecrypt' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/febo/
	$(GO) test -run '^$$' -bench 'BenchmarkFEBOKeyBatch' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/authority/
	$(GO) test -run '^$$' -bench 'BenchmarkLookup|BenchmarkTopKDecrypt|BenchmarkSolverBuild' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/dlog/
	$(GO) test -run '^$$' -bench 'BenchmarkBatchedDecrypt|BenchmarkSecureDotStage|BenchmarkSparseKeysInFlight|BenchmarkEncryptParallel|BenchmarkSecureElementwise$$' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/securemat/
	$(GO) test -run '^$$' -bench 'BenchmarkTrainStep|BenchmarkPredict' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkServeCoalesced' \
		-benchmem -count $(COUNT) -benchtime $(SERVE_BENCHTIME) ./internal/service/
	$(GO) test -run '^$$' -bench 'BenchmarkServeWire' \
		-count $(COUNT) -benchtime $(WIRE_BENCHTIME) -timeout 30m ./internal/service/
	$(GO) test -run '^$$' -bench 'BenchmarkServeSparse' \
		-count $(COUNT) -benchtime $(SPARSE_BENCHTIME) -timeout 30m ./internal/service/
	$(GO) test -run '^$$' -bench 'BenchmarkProveEqBatch|BenchmarkVerifyEqBatch|BenchmarkCombineElementsBatch' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/thresh/
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumIPKeyBatch|BenchmarkQuorumBOKeyBatch' \
		-count $(COUNT) -benchtime $(SERVE_BENCHTIME) ./internal/wire/
	$(GO) test -run '^$$' -bench 'BenchmarkICDEndToEnd' \
		-benchmem -count $(COUNT) -benchtime $(BENCHTIME) ./internal/experiments/
