package tcam

import (
	"testing"

	"faulthound/internal/filter"
)

func BenchmarkLookupMatch(b *testing.B) {
	tc := New(DefaultConfig())
	tc.Lookup(0x10000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Lookup(0x10000000)
	}
}

func BenchmarkLookupStride(b *testing.B) {
	tc := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Lookup(0x10000000 + uint64(i%4096)*8)
	}
}

func BenchmarkProbe(b *testing.B) {
	tc := New(DefaultConfig())
	for i := uint64(0); i < 64; i++ {
		tc.Lookup(0x10000000 + i*8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Probe(0x10000000 + uint64(i%4096)*8)
	}
}

func BenchmarkFilterObserve(b *testing.B) {
	f := filter.New(filter.Biased2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(uint64(i))
	}
}

// BenchmarkLookupTrigger keeps the trigger path hot: a precomputed
// stream of repeats, near values and scattered far values (the
// equivalence test's stream) makes a large share of lookups trigger, so
// the second-level and squash banks decide on most of them.
func BenchmarkLookupTrigger(b *testing.B) {
	vs := newValueStream(1)
	values := make([]uint64, 4096)
	for i := range values {
		values[i] = vs.next()
	}
	tc := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Lookup(values[i%len(values)])
	}
	s := tc.Stats()
	b.ReportMetric(float64(s.Triggers)/float64(s.Lookups), "triggers/lookup")
	b.ReportMetric(float64(s.Replays+s.Squashes)/float64(s.Lookups), "allowed/lookup")
}
