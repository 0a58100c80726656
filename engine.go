package metricindex

import (
	"metricindex/internal/exec"
)

// Engine is the concurrent batch query engine: it answers MRQ and MkNNQ
// workloads over any Index from a pool of worker goroutines, returning
// results positionally aligned with the input queries (identical to a
// sequential loop, order-normalized) and per-batch aggregate cost stats.
//
// Queries are read-only on every index in the library, so a single index
// can serve a batch concurrently; a batch takes any Reader. A raw index
// must not interleave Insert/Delete with a running batch; wrap it in
// NewLive to run batches and updates concurrently under the epoch
// contract.
type Engine = exec.Engine

// EngineOptions configures an Engine.
type EngineOptions = exec.Options

// BatchStats aggregates compdists, page accesses, wall time and
// per-query latency percentiles (p50/p95/p99) over one batch.
type BatchStats = exec.BatchStats

// RangeResult is the answer of Engine.BatchRangeSearch.
type RangeResult = exec.RangeResult

// KNNResult is the answer of Engine.BatchKNNSearch.
type KNNResult = exec.KNNResult

// NewEngine creates a batch query engine over the instrumented space the
// indexes share (pass the Space the Dataset was built with, so per-batch
// CompDists are collected; nil disables that stat). Workers <= 0 defaults
// to GOMAXPROCS.
func NewEngine(space *Space, opts EngineOptions) *Engine {
	return exec.New(space, opts)
}
