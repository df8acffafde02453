module chc/bench

go 1.23

// chcperf is a module of its own so that the benchmark has its own build
// file and the root module's `go build ./... && go test ./...` never
// compiles or runs it. The import path chc/bench sits under chc/, so the
// chc/internal/... packages stay importable; the replace points at the
// checkout this directory lives in.
require chc v0.0.0

replace chc => ../
