package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"faulthound/internal/obs"
)

// Tracks of the spans the benchmark itself records. The campaign
// engine stamps its own spans with the worker index (0..workers-1).
const (
	trackMain    = 1000 // the caller: one campaign, sweep cell or daemon job
	trackProbe   = 1001 // layer probes run after the traced pass
	trackClient0 = 1100 // served: client i is trackClient0+i
)

// span is one closed interval on a track.
type span struct {
	track      int
	name       string
	start, end time.Time
}

// tracer keeps spans in memory for the traced pass. It is an obs.Sink,
// so the campaign engine's own "prepare" and "injection" spans land in
// it too; instants are dropped.
type tracer struct {
	perf *obs.Perfetto // its epoch is when the tracer was made

	mu    sync.Mutex
	open  map[int][]obs.Event
	spans []span
}

func newTracer() *tracer {
	return &tracer{perf: obs.NewPerfetto(), open: map[int][]obs.Event{}}
}

// Event implements obs.Sink, pairing begin and end events per track.
func (t *tracer) Event(ev obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case obs.KindBegin:
		t.open[ev.Track] = append(t.open[ev.Track], ev)
	case obs.KindEnd:
		st := t.open[ev.Track]
		if len(st) == 0 {
			return
		}
		b := st[len(st)-1]
		t.open[ev.Track] = st[:len(st)-1]
		t.spans = append(t.spans, span{ev.Track, b.Name, b.Wall, ev.Wall})
	}
}

// add records a span whose bounds the caller measured.
func (t *tracer) add(track int, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{track, name, start, end})
	t.mu.Unlock()
}

// do runs f inside a span on track (f runs untraced when t is nil) and
// returns its duration.
func (t *tracer) do(track int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	if t != nil {
		t.add(track, name, start, end)
	}
	return end.Sub(start)
}

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// layerOf maps a span name to the module it measures. The engine's own
// span names carry no module prefix: its prepare span is the cell's
// fault.Prepare and its injection span one Prepared.RunOneObsArena.
func layerOf(name string) string {
	switch name {
	case "prepare", "injection":
		return "fault"
	}
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return name
}

// nested returns the spans of each track ordered so that a parent
// precedes the spans it contains.
func (t *tracer) nested() map[int][]span {
	t.mu.Lock()
	by := map[int][]span{}
	for _, s := range t.spans {
		by[s.track] = append(by[s.track], s)
	}
	t.mu.Unlock()
	for _, ss := range by {
		sort.SliceStable(ss, func(i, j int) bool {
			if !ss[i].start.Equal(ss[j].start) {
				return ss[i].start.Before(ss[j].start)
			}
			return ss[i].end.After(ss[j].end)
		})
	}
	return by
}

// selfTimes returns each layer's busy time (sum of its span durations)
// and self time (duration minus the part its child spans on the same
// track cover), in seconds, plus span counts.
func (t *tracer) selfTimes() (busy, self map[string]float64, count map[string]int) {
	busy, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, ss := range t.nested() {
		var stack []span
		for _, s := range ss {
			for len(stack) > 0 && !stack[len(stack)-1].end.After(s.start) {
				stack = stack[:len(stack)-1]
			}
			d := s.end.Sub(s.start).Seconds()
			l := layerOf(s.name)
			busy[l] += d
			self[l] += d
			count[l]++
			if len(stack) > 0 {
				self[layerOf(stack[len(stack)-1].name)] -= d
			}
			stack = append(stack, s)
		}
	}
	return busy, self, count
}

// printLayerTable prints the per-layer self-time table.
func (t *tracer) printLayerTable() {
	busy, self, count := t.selfTimes()
	var layers []string
	total := 0.0
	for l := range busy {
		layers = append(layers, l)
		total += self[l]
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Println("layer self time (traced pass):")
	fmt.Printf("  %-10s %8s %12s %12s %7s\n", "layer", "spans", "busy_s", "self_s", "self%")
	for _, l := range layers {
		fmt.Printf("  %-10s %8d %12.4f %12.4f %6.1f%%\n", l, count[l], busy[l], self[l], 100*self[l]/total)
	}
}

// writePerfetto exports the spans through the obs Perfetto exporter.
func (t *tracer) writePerfetto(path string, names map[int]string) error {
	for tr, n := range names {
		t.perf.NameTrack(tr, n)
	}
	for _, ss := range t.nested() {
		var stack []span
		closeTo := func(at time.Time) {
			for len(stack) > 0 && !stack[len(stack)-1].end.After(at) {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				t.perf.Event(obs.Event{Kind: obs.KindEnd, Name: s.name, Track: s.track, Wall: s.end})
			}
		}
		for _, s := range ss {
			closeTo(s.start)
			t.perf.Event(obs.Event{Kind: obs.KindBegin, Name: s.name, Track: s.track, Wall: s.start})
			stack = append(stack, s)
		}
		closeTo(time.Now().Add(time.Hour))
	}
	return t.perf.WriteFile(path)
}
