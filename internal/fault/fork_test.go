package fault

import (
	"context"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/pipeline"
)

// legacyConfig is smallConfig with the replay-acceleration knobs off:
// every run fast-forwards from the spread start and simulates its full
// window — the path whose results the accelerated paths must reproduce
// bit for bit.
func legacyConfig() Config {
	cfg := smallConfig()
	cfg.CheckpointCycles = 0
	cfg.EarlyExit = false
	return cfg
}

// TestCheckpointForkEquivalence sweeps CheckpointCycles × EarlyExit and
// asserts every Result — outcome, hang flag, detection flag, and all
// five background-subtracted detector counters — is bit-identical to
// the legacy path's, for both a FaultHound cell and a detector-less
// baseline cell.
func TestCheckpointForkEquivalence(t *testing.T) {
	cells := []struct {
		name string
		fh   *core.Config
	}{
		{"faulthound", func() *core.Config { c := core.DefaultConfig(); return &c }()},
		{"baseline", nil},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			mk := mkCore(t, "bzip2", cell.fh)
			ref, err := Prepare(mk, legacyConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]Result, len(ref.Injections()))
			for i, inj := range ref.Injections() {
				if want[i], err = ref.Run(nil, inj, nil, nil); err != nil {
					t.Fatal(err)
				}
			}

			for _, ckpt := range []uint64{0, 64, 256, 1024} {
				for _, early := range []bool{false, true} {
					if ckpt == 0 && !early {
						continue // the reference itself
					}
					cfg := legacyConfig()
					cfg.CheckpointCycles = ckpt
					cfg.EarlyExit = early
					p, err := Prepare(mk, cfg)
					if err != nil {
						t.Fatal(err)
					}
					arena := pipeline.NewSnapshotArena()
					for i, inj := range p.Injections() {
						got, err := p.Run(context.Background(), inj, nil, arena)
						if err != nil {
							t.Fatal(err)
						}
						if got != want[i] {
							t.Fatalf("ckpt=%d early=%v injection %d: got %+v, want %+v",
								ckpt, early, i, got, want[i])
						}
					}
					pf := p.Perf()
					// ckpt=1024 exceeds the 500-cycle spread, so no
					// checkpoint fits inside it and every run legitimately
					// forks from the spread start.
					if ckpt != 0 && ckpt < cfg.SpreadCycles && pf.ForkCyclesSaved == 0 {
						t.Errorf("ckpt=%d early=%v: checkpoint forking saved no cycles", ckpt, early)
					}
					if early && pf.EarlyExits == 0 {
						t.Errorf("ckpt=%d early=%v: no run took the reconvergence early-exit", ckpt, early)
					}
				}
			}
		})
	}
}

// TestForkingArenaParallel drives the checkpoint-forked, early-exiting
// path through concurrent workers (one snapshot arena per goroutine,
// consecutive forks rebasing the arena across different checkpoint
// origins) and asserts bit-identity with the serial legacy run. The CI
// race job runs this under -race, pinning that checkpoint cores and
// golden digests are safely shared read-only.
func TestForkingArenaParallel(t *testing.T) {
	fh := core.DefaultConfig()
	mk := mkCore(t, "ocean", &fh)

	ref, err := Run(mk, legacyConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := legacyConfig()
	cfg.CheckpointCycles = 64
	cfg.EarlyExit = true
	p, err := Prepare(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runConcurrently(t, p, 4, true)
	for i := range ref.Results {
		if got[i] != ref.Results[i] {
			t.Fatalf("injection %d: got %+v, want %+v", i, got[i], ref.Results[i])
		}
	}
}
