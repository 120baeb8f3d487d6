package profile

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestProfileJSONRoundTrip locks the on-disk profile format: a decoded
// profile re-encodes to the same bytes (field order is declaration
// order, so this also guards against accidental field reshuffles), and
// the decoder rejects documents with fields this version doesn't know.
func TestProfileJSONRoundTrip(t *testing.T) {
	w := workloads()[0]
	p, _, _ := runProfiled(t, w.cfg, w.body)

	var a bytes.Buffer
	if err := p.EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	var b bytes.Buffer
	if err := p2.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("round trip changed the profile:\nbefore: %s\nafter:  %s", a.String(), b.String())
	}
	if p2.Schema != 1 {
		t.Errorf("schema = %d, want 1", p2.Schema)
	}

	doc := strings.Replace(a.String(), `"schema"`, `"surprise": 1, "schema"`, 1)
	if _, err := DecodeJSON(strings.NewReader(doc)); err == nil {
		t.Error("DecodeJSON accepted a document with an unknown field")
	}
}

// checkGolden compares got with testdata/file, which -update rewrites.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// TestProfileTextGolden, TestProfileCSVGolden and TestProfileFoldedGolden
// lock the profile's three documented renderings — ovlprof's text
// table, its -csv and its -folded flame-graph input — on a fixed
// workload: the simulation is deterministic, so each is a stable
// artifact. Regenerate with:
//
//	go test ./internal/profile -run Golden -update
func TestProfileTextGolden(t *testing.T) {
	checkGolden(t, "profile_eager.golden", renderEager(t, func(p *Profile, w io.Writer) error { return p.WriteText(w, 10) }))
}

func TestProfileCSVGolden(t *testing.T) {
	checkGolden(t, "profile_eager.csv.golden", renderEager(t, (*Profile).WriteCSV))
}

func TestProfileFoldedGolden(t *testing.T) {
	checkGolden(t, "profile_eager.folded.golden", renderEager(t, (*Profile).WriteFolded))
}

// renderEager profiles the first fixed workload and renders it.
func renderEager(t *testing.T, write func(*Profile, io.Writer) error) string {
	t.Helper()
	w := workloads()[0]
	p, _, _ := runProfiled(t, w.cfg, w.body)
	var buf bytes.Buffer
	if err := write(p, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
