package scheme

import (
	"testing"

	"faulthound/internal/pipeline"
)

// FuzzSchemeSpec: any spec string Parse accepts has a canonical form
// that re-parses to itself, and builds — detector and pipeline
// configuration included — without panicking under the default
// environment. The seed corpus under testdata/fuzz/FuzzSchemeSpec
// (every registry name and the daemon benchmark's served variants) is
// replayed by a plain `go test`; `make fuzz-smoke` explores further.
func FuzzSchemeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		sp, err := Parse(raw)
		if err != nil {
			return
		}
		canon := sp.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not re-parse: %v", raw, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("Parse(%q) = %q, re-parsed as %q", raw, canon, again.String())
		}
		inst, err := Build(sp, Env{})
		if err != nil {
			return
		}
		if inst.NewDetector != nil {
			inst.NewDetector()
		}
		if inst.Configure != nil {
			cfg := pipeline.DefaultConfig(1)
			inst.Configure(&cfg)
		}
	})
}
