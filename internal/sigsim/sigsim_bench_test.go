package sigsim

import "testing"

// BenchmarkPollQuiet measures the per-record-access barrier when no signal
// is pending — NBR's entire read-side overhead (one atomic load).
func BenchmarkPollQuiet(b *testing.B) {
	g := NewGroup(8, Config{})
	g.SetRestartable(0)
	for i := 0; i < b.N; i++ {
		g.Poll(0)
	}
}

// BenchmarkPhaseCycle measures beginΦread + endΦread (one atomic load
// each, no read-modify-write), the per-operation fixed cost of NBR.
func BenchmarkPhaseCycle(b *testing.B) {
	g := NewGroup(8, Config{})
	for i := 0; i < b.N; i++ {
		g.SetRestartable(0)
		g.ClearRestartable(0)
	}
}

// BenchmarkSignalAll measures a full broadcast without the cost model — the
// raw cross-thread posting work of one reclamation event.
func BenchmarkSignalAll(b *testing.B) {
	g := NewGroup(16, Config{})
	for i := 0; i < b.N; i++ {
		g.SignalAll(0)
	}
}

// BenchmarkSignalAllWithCost includes the simulated pthread_kill spin, the
// configuration benchmarks actually run with.
func BenchmarkSignalAllWithCost(b *testing.B) {
	g := NewGroup(16, Config{SendSpin: 600})
	for i := 0; i < b.N; i++ {
		g.SignalAll(0)
	}
}

// BenchmarkDeliveryIgnore measures handling a pending signal while
// non-restartable (the writer-side handler path).
func BenchmarkDeliveryIgnore(b *testing.B) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.ClearRestartable(0)
	for i := 0; i < b.N; i++ {
		g.SignalAll(1)
		g.Poll(0)
	}
}
