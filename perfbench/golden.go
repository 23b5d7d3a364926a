package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

// golden is one workload's committed expected outputs at the default
// seed: a fingerprint per cell (results.csv rows and summary entry for
// campaign cells, cycles/commits/detector deltas for timing cells) and
// the deterministic block.
type golden struct {
	Seed          uint64            `json:"seed"`
	Cells         map[string]string `json:"cells"`
	Deterministic map[string]any    `json:"deterministic"`
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	if len(g.Cells) == 0 {
		return nil, fmt.Errorf("golden: %s has no cells", path)
	}
	return &g, nil
}

func (g *golden) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// corrupt flips one byte of the first cell's fingerprint (the negative
// control: every check of that cell must then fail).
func (g *golden) corrupt() {
	keys := make([]string, 0, len(g.Cells))
	for k := range g.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte(g.Cells[keys[0]])
	b[0] ^= 1
	g.Cells[keys[0]] = string(b)
}

// checker counts operations attempted and failed. Per-cell outputs are
// compared with the golden at the default seed; at every seed, a cell
// computed twice in one run must produce the same fingerprint both
// times.
type checker struct {
	attempted, failed int
	seen              map[string]string // cell -> first fingerprint this run
	recorded          map[string]string // -record-golden output
}

// op counts one operation that failed if err is non-nil.
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
}

// checkCell checks one cell's fingerprint and counts it as one
// operation (extra, when non-nil, is a further failure of the same
// operation).
func (e *env) checkCell(cell, fp string, extra error) {
	err := e.cellErr(cell, fp)
	if extra != nil {
		err = extra
	}
	e.chk.op(err)
}

// cellErr compares one cell's fingerprint with this run's first
// computation of the cell and with the golden, at the default seed or,
// for workloads whose cell outputs do not depend on the seed, always.
func (e *env) cellErr(cell, fp string) error {
	c := &e.chk
	if c.seen == nil {
		c.seen = map[string]string{}
		c.recorded = map[string]string{}
	}
	if first, ok := c.seen[cell]; !ok {
		c.seen[cell] = fp
	} else if first != fp {
		return fmt.Errorf("%s: output differs from this run's first computation of the cell", cell)
	}
	switch {
	case e.record:
		c.recorded[cell] = fp
	case e.seed == defaultSeed || e.seedFreeCells:
		if want, ok := e.golden.Cells[cell]; !ok {
			return fmt.Errorf("%s: no golden for this cell", cell)
		} else if want != fp {
			return fmt.Errorf("%s: output differs from the golden (%s, want %s)", cell, short(fp), short(want))
		}
	}
	return nil
}

// deterministic compares the run's deterministic block with the
// golden's over the keys both carry (a traced run records more keys
// than an untraced one). A mismatch is one failed operation.
func (c *checker) deterministic(want, got map[string]any) {
	var bad []string
	for k, v := range got {
		w, ok := want[k]
		if !ok {
			continue
		}
		// Round-trip through JSON so numbers compare as the golden stores them.
		var g any
		json.Unmarshal(mustJSON(v), &g)
		if !reflect.DeepEqual(w, g) {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	var err error
	if len(bad) > 0 {
		err = fmt.Errorf("deterministic block differs from the golden in %v", bad)
	}
	c.op(err)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}
