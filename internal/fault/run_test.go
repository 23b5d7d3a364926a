package fault

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"faulthound/internal/core"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
)

// runConcurrently executes every injection of p across workers
// goroutines and returns the results in descriptor order. With
// withArena each goroutine reuses its own snapshot arena — the campaign
// engine's execution shape; without, every run deep-clones the golden
// core (nil arena).
func runConcurrently(t *testing.T, p *Prepared, workers int, withArena bool) []Result {
	t.Helper()
	injs := p.Injections()
	got := make([]Result, len(injs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var arena *pipeline.SnapshotArena
			if withArena {
				arena = pipeline.NewSnapshotArena()
			}
			for i := w; i < len(injs); i += workers {
				res, err := p.Run(context.Background(), injs[i], nil, arena)
				if err != nil {
					errs[w] = err
					return
				}
				got[i] = res
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// checkRunEquivalence proves Run's optional arguments are pure control
// flow for one arena mode: for a detector-equipped cell and two
// detector-less cells, every combination of ctx {nil, Background} ×
// sink {nil, Collector} under the given arena mode reproduces the plain
// deep-clone run bit for bit. arenaMode is "nil" (deep clone),
// "reused" (one arena across the cell's injections) or "switch": the
// arena alternates between two cells' golden states (different
// benchmark or detector present vs absent) before every run, so it must
// fall back to fresh allocation rather than corrupt results. The three
// tests below partition the full ctx × sink × arena matrix by arena
// mode.
func checkRunEquivalence(t *testing.T, arenaMode string) {
	t.Helper()
	const n = 24
	fh := core.DefaultConfig()
	cells := []struct {
		name string
		mk   func() *pipeline.Core
	}{
		{"bzip2/faulthound", mkCore(t, "bzip2", &fh)},
		{"bzip2/baseline", mkCore(t, "bzip2", nil)},
		{"mcf/baseline", mkCore(t, "mcf", nil)},
	}
	preps := make([]*Prepared, len(cells))
	want := make([][]Result, len(cells))
	for ci, c := range cells {
		p, err := Prepare(c.mk, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		preps[ci] = p
		for _, inj := range p.Injections()[:n] {
			res, err := p.Run(nil, inj, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[ci] = append(want[ci], res)
		}
	}

	for ci, p := range preps {
		other := (ci + 1) % len(preps)
		for _, ctx := range []context.Context{nil, context.Background()} {
			for _, withSink := range []bool{false, true} {
				combo := fmt.Sprintf("%s ctx=%v sink=%v arena=%s", cells[ci].name, ctx != nil, withSink, arenaMode)
				var arena *pipeline.SnapshotArena
				if arenaMode != "nil" {
					arena = pipeline.NewSnapshotArena()
				}
				for i, inj := range p.Injections()[:n] {
					if arenaMode == "switch" {
						res, err := preps[other].Run(ctx, preps[other].Injections()[i], nil, arena)
						if err != nil {
							t.Fatal(err)
						}
						if res != want[other][i] {
							t.Fatalf("%s: switched-to cell injection %d = %+v, want %+v", combo, i, res, want[other][i])
						}
					}
					var sink obs.Sink
					if withSink {
						sink = &obs.Collector{}
					}
					got, err := p.Run(ctx, inj, sink, arena)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[ci][i] {
						t.Fatalf("%s: injection %d = %+v, want %+v", combo, i, got, want[ci][i])
					}
				}
			}
		}
	}
}

// TestRunOneCtxMatchesRunOne: the cancellation poll and the event sink
// are pure control flow — without an arena, a Background ctx and a
// live sink return exactly the nil-ctx, nil-sink result.
func TestRunOneCtxMatchesRunOne(t *testing.T) { checkRunEquivalence(t, "nil") }

// TestRunOneArenaMatchesRunOne proves the snapshot arena is a pure
// allocation-profile change: a reused arena reproduces the deep-clone
// results bit for bit, including a detector-equipped cell (exercising
// the in-place detector clone).
func TestRunOneArenaMatchesRunOne(t *testing.T) { checkRunEquivalence(t, "reused") }

// TestArenaSurvivesCampaignSwitch: a campaign worker's arena outlives
// cell boundaries — reusing one arena across two different prepared
// golden runs must fall back to fresh allocation, not corrupt results.
func TestArenaSurvivesCampaignSwitch(t *testing.T) { checkRunEquivalence(t, "switch") }

// TestRunParallelMatchesSerial proves concurrent execution is a pure
// scheduling change: for any worker count the results are bit-identical
// to the serial fault.Run reference.
func TestRunParallelMatchesSerial(t *testing.T) {
	mk := mkCore(t, "bzip2", nil)
	cfg := smallConfig()
	serial, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		p, err := Prepare(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runConcurrently(t, p, workers, true)
		if len(got) != len(serial.Results) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial.Results))
		}
		for i := range serial.Results {
			if got[i] != serial.Results[i] {
				t.Fatalf("workers=%d: result %d differs from serial run", workers, i)
			}
		}
	}
}

// TestPreparedSharedState proves the Prepare/Run split's contract:
// after preparation, the golden core, hash trace, and detector
// background are read-only, so goroutines sharing one Prepared and
// deep-cloning it concurrently (nil arena) must not race (run with
// -race) and must reproduce the serial results.
func TestPreparedSharedState(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	injs := p.Injections()
	want := make([]Result, len(injs))
	for i, inj := range injs {
		if want[i], err = p.Run(nil, inj, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := runConcurrently(t, p, 8, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concurrent result %d differs from serial", i)
		}
	}
}

// TestRunOneCtxPromptCancel checks that cancellation lands inside a
// single injection, not only at the next descriptor boundary: a
// Prepared.Run whose clone-advance phase would run for ~2^40 cycles
// must abort within the poll interval once the context is cancelled.
func TestRunOneCtxPromptCancel(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	long := p.Injections()[0]
	long.CycleOffset = 1 << 40 // days of simulation if not cancelled
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, long, nil, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run get deep into the injection
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after cancel")
	}
}

// TestPreparedFPRate sanity-checks the golden fault-free FP
// measurement: a baseline core (no detector) has rate zero, and the
// rate is never negative.
func TestPreparedFPRate(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.FPRate() != 0 {
		t.Fatalf("baseline FP rate = %v, want 0", p.FPRate())
	}
}
