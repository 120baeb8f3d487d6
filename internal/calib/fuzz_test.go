package calib

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// FuzzRead drives the table loader with arbitrary bytes: it must reject
// garbage with an error, never panic, and a table it accepts must
// survive its own text format — WriteTo, then Read — with the same
// points and clock domain.
//
// Run long with: go test -fuzz=FuzzRead ./internal/calib
func FuzzRead(f *testing.F) {
	virtual, err := NewTable([]Point{{Size: 1, Time: 4051}, {Size: 1024, Time: 5187}, {Size: 1 << 20, Time: 1200 * time.Microsecond}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	virtual.WriteTo(&buf)
	f.Add(buf.Bytes())
	for _, s := range []string{
		"# calib transfer-time table: size_bytes time_ns\n# clock-domain: real\n1 4051\n1024 5187\n",
		"8 100\n8 200\n",           // duplicate size
		"8 -100\n",                 // negative time
		"8 99999999999999999999\n", // stamp overflows int64
		"-8 100\n",                 // negative size
		"# clock-domain:\n# clock-domain: virtual\n0 1\n",
		"1 2 trailing\n\r\n  3 4\r\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tbl.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects what WriteTo wrote for an accepted table: %v\n%s", err, out.Bytes())
		}
		if !slices.Equal(back.Points(), tbl.Points()) {
			t.Fatalf("points changed in the round trip: %v, were %v", back.Points(), tbl.Points())
		}
		if back.Domain() != tbl.Domain() {
			t.Fatalf("domain %q came back as %q", tbl.Domain(), back.Domain())
		}
	})
}
