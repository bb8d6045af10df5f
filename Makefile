# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make check` locally means a green pipeline.

GO      ?= go
BIN     := bin
CODVET  := $(BIN)/codvet
PKGS    := ./...
FUZZTIME ?= 10s

.PHONY: all build test race lint vet codvet codvet-path codvet-self fmt fmt-check bench cover-check fuzz serve-smoke perfbench-smoke examples check clean

all: build

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

# The determinism-replay tests exercise the concurrent query and sampling
# paths, so running them under the race detector gates both contracts.
race:
	$(GO) test -race $(PKGS)

$(CODVET): $(wildcard internal/analysis/*.go internal/analysis/*/*.go cmd/codvet/*.go)
	@mkdir -p $(BIN)
	$(GO) build -o $(CODVET) ./cmd/codvet

codvet: $(CODVET)

# Absolute tool path for `go vet -vettool=$$(make -s codvet-path)`.
codvet-path: $(CODVET)
	@echo $(abspath $(CODVET))

# vet gates on both toolchains: stock go vet and the repo's own analyzers.
# Any new codvet diagnostic fails the build; suppressions must be explicit
# //codvet:ignore directives (audited by unusedignore).
vet: $(CODVET)
	$(GO) vet $(PKGS)
	$(GO) vet -vettool=$(abspath $(CODVET)) $(PKGS)

# The analyzers analyzed by themselves: codvet over its own implementation
# and the commands that embed it. Keeps the suite honest — the checkers
# must satisfy the contracts they enforce (the interprocedural ones
# exercise their own facts plumbing doing it).
codvet-self: $(CODVET)
	$(GO) vet -vettool=$(abspath $(CODVET)) ./internal/analysis/... ./internal/query/... ./cmd/...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: fmt-check vet $(CODVET)
	$(GO) vet -vettool=$(abspath $(CODVET)) $(PKGS)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Per-package coverage floors for the statistical packages (accuracy
# harness, influence sampling); no global gate.
cover-check:
	sh scripts/cover_check.sh

# Short smoke of each parser fuzz target; regressions caught by the seed
# corpus and a few seconds of mutation. Raise FUZZTIME for a deeper run.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzRead$$ -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=^$$ -fuzz=FuzzReadEdgeList$$ -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=^$$ -fuzz=FuzzReadAttrFile$$ -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=^$$ -fuzz=FuzzManifestRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/blobstore/
	$(GO) test -run=^$$ -fuzz=FuzzParseQuery$$ -fuzztime=$(FUZZTIME) ./internal/query/

# Runs the API-tour examples. go build ./... only compiles them, so a
# runtime failure (a retired entry point, a rejected option) needs a run to
# show; log.Fatal output still reaches stderr.
examples:
	@for e in quickstart dynamic heterogeneous academic marketing; do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# Boots codserve on a random port and drives the serving contract end to
# end: readiness split, query endpoints, JSON errors, SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# perfbench is its own module, so the root `go test ./...` skips it. Runs
# its tests, then a one-second run of each BENCHMARK.json workload, failing
# unless the result line reports "correct":true. At the default seed 1,
# variants-cora also checks its answer digest against perfbench/digests.json.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	@for w in serve-cora variants-cora; do \
		out=$$(bash perfbench/run.sh --workload $$w --seconds 1 | tail -n 1); \
		echo "$$out"; \
		case "$$out" in *'"correct":true'*) ;; *) echo "perfbench-smoke: $$w not correct"; exit 1;; esac; \
	done

check: build lint test race examples serve-smoke

clean:
	rm -rf $(BIN)
