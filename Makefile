GO ?= go

.PHONY: build test race bench serve

build:
	$(GO) build ./...

# benchmark/ is a module of its own, so the root ./... never reaches it.
# It compiles against the service API (serve.QueryMode, serve.ModeCertified,
# core.BuildSketch), so vet it too: a system change can break its build.
test:
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The concurrency-sensitive packages: sharded RR generation, the parallel
# select kernel, the cluster transports, the query service, the sketch
# tier (node-sharded absorbs), the mutation/repair planner, the durable
# store, and the graph substrate (mmap-backed CSRs are shared read-only
# across sampling shards) run under the race detector.
race:
	$(GO) test -race ./internal/cluster/... ./internal/coverage/... ./internal/graph/... ./internal/metrics/... ./internal/mutate/... ./internal/offheap/... ./internal/rrset/... ./internal/serve/... ./internal/sketch/... ./internal/store/...

bench:
	$(GO) test -bench=. -benchmem

# Starts the resident query service on a 20K-node synthetic graph that
# gengraph writes to serve.dsg (ignored by git) — handy for poking the
# HTTP API with curl (see README "Serving").
serve:
	$(GO) run ./cmd/gengraph -nodes 20000 -out serve.dsg
	$(GO) run ./cmd/dimmsrv -graph serve.dsg -machines 2 -kmax 20 -eps-floor 0.3 -warm -listen :8080
