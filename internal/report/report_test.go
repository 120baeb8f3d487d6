package report

import (
	"strings"
	"testing"
	"time"
)

func TestRenderAlignsColumns(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("short", 1)
	tbl.AddRow("a-much-longer-name", 123456)
	out := tbl.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line %q", lines[0])
	}
	// The value column must start at the same offset in every row.
	header := lines[1]
	col := strings.Index(header, "value")
	if col < 0 {
		t.Fatalf("no value header in %q", header)
	}
	if lines[3][col:col+1] != "1" {
		t.Errorf("row 1 misaligned: %q", lines[3])
	}
	if lines[4][col:col+1] != "1" {
		t.Errorf("row 2 misaligned: %q", lines[4])
	}
}

func TestFloatsRenderOneDecimal(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow(3.14159)
	if !strings.Contains(tbl.String(), "3.1") || strings.Contains(tbl.String(), "3.14") {
		t.Errorf("float formatting wrong:\n%s", tbl.String())
	}
}

func TestDurationsRenderViaStringer(t *testing.T) {
	tbl := NewTable("", "d")
	tbl.AddRow(1500 * time.Microsecond)
	if !strings.Contains(tbl.String(), "1.5ms") {
		t.Errorf("duration formatting wrong:\n%s", tbl.String())
	}
}

func TestMismatchedRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong arity")
		}
	}()
	NewTable("", "a", "b").AddRow(1)
}

func TestEmptyTitleOmitted(t *testing.T) {
	tbl := NewTable("", "h")
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

// TestRenderAlignsMultiByteCells: a cell holding "µs" (two bytes, one
// column) must not pull its row's later columns left.
func TestRenderAlignsMultiByteCells(t *testing.T) {
	tbl := NewTable("", "latency", "work")
	tbl.AddRow(250*time.Microsecond, "x")
	tbl.AddRow("1ms", "y")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	col := len([]rune(lines[0])) - len("work") // in runes: terminal columns
	for _, l := range lines[2:] {
		if r := []rune(l); len(r) <= col || r[col-1] != ' ' || r[col] == ' ' {
			t.Errorf("row %q does not start its work cell at column %d:\n%s", l, col, tbl.String())
		}
	}
}
