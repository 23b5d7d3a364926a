package tcam

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"faulthound/internal/filter"
	"faulthound/internal/sm"
)

// refTCAM is the scalar reference for the TCAM's suppressor banks: the
// same filter search and replacement, with the second-level and squash
// banks kept as explicit sm.Suppressor machines, every one of which is
// stepped on every trigger the bank observes. The stamp banks in TCAM
// must be indistinguishable from it.
type refTCAM struct {
	cfg       Config
	filters   []filter.Filter
	used      uint64
	age       []uint64
	stamp     uint64
	second    []*sm.Suppressor
	squash    []*sm.Suppressor
	stats     Stats
	learnOnly bool
}

func suppressors(n, states int) []*sm.Suppressor {
	bank := make([]*sm.Suppressor, n)
	for i := range bank {
		bank[i] = sm.NewSuppressor(states)
	}
	return bank
}

func newRef(cfg Config) *refTCAM {
	r := &refTCAM{cfg: cfg, filters: make([]filter.Filter, cfg.Entries), age: make([]uint64, cfg.Entries)}
	for i := range r.filters {
		r.filters[i] = filter.Make(cfg.Policy, 0)
	}
	if cfg.SecondLevel {
		r.second = suppressors(64, cfg.SecondLevelStates)
	}
	if cfg.SquashMachines {
		r.squash = suppressors(cfg.Entries, cfg.SquashStates)
	}
	return r
}

func (r *refTCAM) clone() *refTCAM {
	c := *r
	c.filters = append([]filter.Filter(nil), r.filters...)
	c.age = append([]uint64(nil), r.age...)
	copyBank := func(bank []*sm.Suppressor) []*sm.Suppressor {
		if bank == nil {
			return nil
		}
		out := make([]*sm.Suppressor, len(bank))
		for i, s := range bank {
			cp := *s
			out[i] = &cp
		}
		return out
	}
	c.second, c.squash = copyBank(r.second), copyBank(r.squash)
	return &c
}

func (r *refTCAM) flashClear() {
	for m := r.used; m != 0; m &= m - 1 {
		r.filters[bits.TrailingZeros64(m)].FlashClear()
	}
	r.stats.FlashClears++
}

func (r *refTCAM) lookup(v uint64) Result {
	r.stats.Lookups++
	if r.cfg.PeriodicClear != 0 && r.stats.Lookups%r.cfg.PeriodicClear == 0 {
		r.flashClear()
	}
	r.stamp++
	if r.used == 0 {
		r.filters[0].Reset(v)
		r.used |= 1
		r.age[0] = r.stamp
		return Result{}
	}
	best, bestCount := -1, 65
	var bestMask, unionMask uint64
	for i := range r.filters {
		if r.used>>uint(i)&1 == 0 {
			continue
		}
		mask := r.filters[i].Match(v)
		unionMask |= mask
		if n := bits.OnesCount64(mask); n < bestCount {
			best, bestCount, bestMask = i, n, mask
		}
	}
	if bestCount == 0 {
		r.filters[best].Observe(v)
		r.age[best] = r.stamp
		return Result{BestIndex: best}
	}
	res := Result{Trigger: true, BestIndex: best, MismatchMask: bestMask}
	if bestCount <= r.cfg.LoosenThreshold {
		r.filters[best].Observe(v)
		r.age[best] = r.stamp
		r.stats.Loosened++
	} else {
		slot := bits.TrailingZeros64(^r.used)
		if slot >= len(r.filters) {
			slot = 0
			for i := range r.age {
				if r.age[i] < r.age[slot] {
					slot = i
				}
			}
		}
		r.filters[slot].Reset(v)
		r.used |= 1 << uint(slot)
		r.age[slot] = r.stamp
		res.Replaced, res.BestIndex = true, slot
		r.stats.Replaced++
	}
	if r.learnOnly {
		r.stats.LearnLookups++
		res.Trigger, res.MismatchMask, res.Replaced = false, 0, false
		return res
	}
	r.stats.Triggers++
	if r.second != nil {
		trainMask := bestMask
		if r.cfg.SecondLevelUnion {
			trainMask = unionMask
		}
		quiet, total := 0, 0
		for b, s := range r.second {
			participated := trainMask>>uint(b)&1 == 1
			allowed := s.Observe(participated)
			if participated {
				total++
				if allowed {
					quiet++
				}
			}
		}
		if quiet*2 <= total {
			res.Suppressed = true
			r.stats.Suppressed++
			return res
		}
	}
	if r.squash != nil {
		minMM := r.cfg.SquashMinMismatch
		if minMM <= 0 {
			minMM = r.cfg.LoosenThreshold + 1
		}
		wide := bits.OnesCount64(bestMask) >= minMM
		for i, s := range r.squash {
			if s.Observe(i == res.BestIndex) && i == res.BestIndex && wide {
				res.SquashAllowed = true
			}
		}
	}
	if res.SquashAllowed {
		r.stats.Squashes++
	} else {
		r.stats.Replays++
	}
	return res
}

func (r *refTCAM) probe(v uint64) (trigger, suppressed bool) {
	if r.used == 0 || r.learnOnly {
		return false, false
	}
	bestCount, bestMask := 65, uint64(0)
	for i := range r.filters {
		if r.used>>uint(i)&1 == 0 {
			continue
		}
		mask := r.filters[i].Match(v)
		if n := bits.OnesCount64(mask); n < bestCount {
			bestCount, bestMask = n, mask
		}
	}
	if bestCount == 0 {
		return false, false
	}
	if r.second != nil {
		quiet, total := 0, 0
		for b, s := range r.second {
			if bestMask>>uint(b)&1 == 1 {
				total++
				if s.Quiet() {
					quiet++
				}
			}
		}
		if quiet*2 <= total {
			return true, true
		}
	}
	return true, false
}

// valueStream draws values that mix exact repeats, near values (a
// flipped low bit, which loosens a filter and re-offends in the same
// delinquent positions), far values (a few flipped bits anywhere, wide
// enough to replace a filter but scattered so that most bit positions
// stay quiet between them), and rare uniform values.
type valueStream struct {
	rng   *rand.Rand
	bases []uint64
}

func newValueStream(seed int64) *valueStream {
	s := &valueStream{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 6; i++ {
		s.bases = append(s.bases, s.rng.Uint64())
	}
	return s
}

func (s *valueStream) next() uint64 {
	i := s.rng.Intn(len(s.bases))
	switch r := s.rng.Intn(100); {
	case r < 60:
		return s.bases[i]
	case r < 80:
		return s.bases[i] ^ 1<<uint(3+s.rng.Intn(6))
	case r < 97:
		for n := 3 + s.rng.Intn(4); n > 0; n-- {
			s.bases[i] ^= 1 << uint(s.rng.Intn(64))
		}
		return s.bases[i]
	default:
		return s.rng.Uint64()
	}
}

// TestStampBanksMatchSuppressorReference drives the stamp-bank TCAM and
// the sm.Suppressor reference in lockstep and requires every Result,
// every Probe answer and the final Stats to be equal, across bank
// sizes, state counts, union training, learn-only toggles, periodic
// clears, and Clone/CloneInto mid-stream.
func TestStampBanksMatchSuppressorReference(t *testing.T) {
	var total Stats
	states := []int{2, 3, 8, 16}
	for _, entries := range []int{1, 8, 32, 64} {
		for si, second := range states {
			for _, squash := range []int{states[si], states[(si+1)%len(states)]} {
				for _, union := range []bool{false, true} {
					c := DefaultConfig()
					c.Entries = entries
					c.SecondLevelStates = second
					c.SquashStates = squash
					c.SecondLevelUnion = union
					if entries == 8 {
						c.PeriodicClear = 97
					}
					if second == 3 {
						c.SquashMinMismatch = 0
					}
					name := fmt.Sprintf("e%d/sl%d/sq%d/union=%v", entries, second, squash, union)
					t.Run(name, func(t *testing.T) {
						seed := int64(entries*1000 + second*31 + squash)
						s := checkLockstep(t, c, seed, 3000)
						total.Suppressed += s.Suppressed
						total.Replays += s.Replays
						total.Squashes += s.Squashes
					})
				}
			}
		}
	}
	// Each bank disabled on its own.
	for _, c := range []Config{cfg(8, false, true), cfg(8, true, false), cfg(8, false, false)} {
		checkLockstep(t, c, 7, 2000)
	}
	// The streams must reach every trigger outcome, or agreement proves
	// little about the banks.
	if total.Suppressed == 0 || total.Replays == 0 || total.Squashes == 0 {
		t.Fatalf("streams miss a trigger outcome: %+v", total)
	}
}

func checkLockstep(t *testing.T, c Config, seed int64, steps int) Stats {
	t.Helper()
	tc, ref := New(c), newRef(c)
	vs := newValueStream(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// arena is a reused CloneInto destination of a different geometry,
	// so a disabled bank must stay nil across the reuse.
	other := c
	other.Entries = 64
	other.SecondLevel, other.SquashMachines = !c.SecondLevel, !c.SquashMachines
	arena := New(other)
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(200); {
		case r == 0:
			learn := rng.Intn(2) == 0
			tc.SetLearnOnly(learn)
			ref.learnOnly = learn
		case r == 1:
			tc.FlashClear()
			ref.flashClear()
		case r == 2 || r == 3:
			// Fork: the copies must be independent of the originals,
			// so advance the originals on a private stream first.
			var cl *TCAM
			if r == 2 {
				cl = tc.Clone()
			} else {
				tc.CloneInto(arena)
				cl, arena = arena, New(other)
			}
			refCl := ref.clone()
			junk := newValueStream(seed + int64(step))
			for i := 0; i < 20; i++ {
				v := junk.next()
				tc.Lookup(v)
				ref.lookup(v)
			}
			tc, ref = cl, refCl
		}
		v := vs.next()
		pt, ps := tc.Probe(v)
		rt, rs := ref.probe(v)
		if pt != rt || ps != rs {
			t.Fatalf("step %d: Probe(%#x) = (%v, %v), reference (%v, %v)", step, v, pt, ps, rt, rs)
		}
		got, want := tc.Lookup(v), ref.lookup(v)
		if got != want {
			t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", step, v, got, want)
		}
	}
	if tc.Stats() != ref.stats {
		t.Fatalf("stats %+v, reference %+v", tc.Stats(), ref.stats)
	}
	return ref.stats
}
