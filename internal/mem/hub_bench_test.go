package mem

import "testing"

// BenchmarkHubMixedBurst is the free seam's rung: one thread slot, three
// pools, a retire stream that alternates owners perfectly, the reclamation
// burst declared at its real size and no DrainCache between bursts — one
// long-lived lease, the most a multi-structure burst can cost the Hub. An op
// is one alloc+free pair; dispatch/burst is pool FreeBatch calls per burst
// (3: one per owner).
func BenchmarkHubMixedBurst(b *testing.B) {
	const (
		owners = 3
		burst  = 512
	)
	h := NewHub(1)
	var pools [owners]*Pool[rec]
	for tag := range pools {
		pools[tag] = NewPool[rec](Config{MaxThreads: 1, Tag: h.NextTag()})
		h.Attach(tag, pools[tag])
	}
	h.SizeCache(0, burst)
	ps := make([]Ptr, 0, burst)
	churn := func(pairs int) {
		for done := 0; done < pairs; done += len(ps) {
			ps = ps[:0]
			for i := 0; i < min(burst, pairs-done); i++ {
				p, _ := pools[i%owners].Alloc(0)
				ps = append(ps, p)
			}
			h.FreeBatch(0, ps)
		}
	}
	churn(burst) // grow the pools' thread caches to their steady size
	b.ReportAllocs()
	b.ResetTimer()
	churn(b.N)
	st := h.Stats()
	b.ReportMetric(float64(st.Dispatches)/float64(st.Bursts), "dispatch/burst")
}
