package exp

import "testing"

// Thin `go test -bench` entry points for the harness benchmarks, so the
// same measurements behind `schedbench -benchjson` are reachable via
// `go test -bench 'Harness' ./internal/exp`.

func BenchmarkHarnessAccessHit(b *testing.B)        { BenchAccessHit(b) }
func BenchmarkHarnessAccessTwoStreams(b *testing.B) { BenchAccessTwoStreams(b) }
func BenchmarkHarnessAccessStream(b *testing.B)     { BenchAccessStream(b) }
func BenchmarkHarnessAccessRandom(b *testing.B)     { BenchAccessRandom(b) }
func BenchmarkHarnessEngine(b *testing.B)           { BenchEngineParallelFor(b) }
func BenchmarkHarnessGridFig8(b *testing.B)         { BenchGridFig8(b) }
func BenchmarkHarnessTraceRecord(b *testing.B)      { BenchTraceRecord(b) }
func BenchmarkHarnessReplayFig8(b *testing.B)       { BenchReplayFig8(b) }

func BenchmarkHarnessWindowedDecode(b *testing.B) { BenchWindowedDecode(b) }
func BenchmarkHarnessShardedReplay(b *testing.B)  { BenchShardedReplay(b) }
func BenchmarkHarnessGridFullscale(b *testing.B)  { BenchGridFullscale(b) }
