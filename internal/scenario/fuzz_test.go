package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the YAML-subset loader (and the validation behind
// it) with arbitrary bytes: it must reject garbage with an error,
// never panic, and anything it accepts must survive a round trip
// through its own JSON encoding. The spec loader must not panic on the
// same bytes. Seeds are the real corpus and spec files.
//
// Run long with: go test -fuzz=FuzzParse ./internal/scenario
func FuzzParse(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	specs, _ := filepath.Glob(filepath.Join("..", "..", "specs", "*.yaml"))
	for _, p := range append(paths, specs...) {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(b)
		}
	}
	// Adversarial shapes the corpus files don't cover: deep nesting,
	// truncated documents, type confusion, huge scalars.
	for _, s := range []string{
		"",
		"name",
		"name: x\nprocs: not-a-number",
		"name: x\nprocs: 2\nworkload: 7",
		"assert:\n  - check:\n    - nested: [1, 2",
		"name: \"unterminated",
		"chaos:\n- at: 99999999999999999999s",
		"name: x\r\nprocs: 2\r\n",
		"workload:\n\tkind: exchange",
		"crashes:\n  - node: -1\n    at: 1ms",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ParseSpec("fuzz.yaml", data) // must return, with or without an error
		s, err := Parse("fuzz.yaml", data)
		if err != nil {
			return
		}
		b, err := s.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted scenario failed to encode: %v", err)
		}
		if _, err := Parse("fuzz.json", b); err != nil {
			t.Fatalf("round trip rejected: %v\nencoded:\n%s\noriginal:\n%s", err, b, data)
		}
	})
}
