package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ovlp/internal/cluster"
	"ovlp/internal/mpi"
	"ovlp/internal/profile"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// writeTrace exports a tracer to a temp Chrome file.
func writeTrace(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func tracedRun(t *testing.T) string {
	t.Helper()
	tr := trace.New(trace.Options{})
	cluster.Run(cluster.Config{
		Procs: 2,
		MPI:   mpi.Config{Instrument: &mpi.InstrumentConfig{}},
		Trace: tr,
	}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		var q *mpi.Request
		if r.ID() == 0 {
			q = r.Isend(peer, 0, 64<<10)
		} else {
			q = r.Irecv(peer, 0)
		}
		r.Compute(100 * time.Microsecond)
		r.Wait(q)
	})
	return writeTrace(t, tr)
}

func TestEmptyTraceExitsNonZero(t *testing.T) {
	path := writeTrace(t, trace.New(trace.Options{}))
	var out, errb bytes.Buffer
	if code := ovlprofMain([]string{path}, &out, &errb); code == 0 {
		t.Fatalf("empty trace exited 0; stdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), profile.ErrEmptyTrace.Error()) {
		t.Errorf("stderr %q does not name the empty-trace error", errb.String())
	}
}

func TestSpanFreeTraceExitsNonZero(t *testing.T) {
	tr := trace.New(trace.Options{})
	tk := tr.Track(trace.GroupHost, 0, "rank0")
	tk.Instant("overlap", "xfer-begin", vtime.Time(time.Microsecond), trace.Args{Peer: trace.NoPeer, ID: 1})
	path := writeTrace(t, tr)
	var out, errb bytes.Buffer
	if code := ovlprofMain([]string{path}, &out, &errb); code == 0 {
		t.Fatal("span-free trace exited 0")
	}
	if !strings.Contains(errb.String(), "empty trace") {
		t.Errorf("stderr %q does not name the empty-trace error", errb.String())
	}
}

func TestProfileText(t *testing.T) {
	path := tracedRun(t)
	var out, errb bytes.Buffer
	if code := ovlprofMain([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "critical path") && !strings.Contains(out.String(), "blame") {
		t.Errorf("text report unexpectedly bare:\n%s", out.String())
	}
}

func TestTimeResolvedCSVDeterministic(t *testing.T) {
	path := tracedRun(t)
	render := func() string {
		var out, errb bytes.Buffer
		if code := ovlprofMain([]string{"-timeresolved", "-csv", path}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("-timeresolved -csv output not deterministic")
	}
	if !strings.HasPrefix(a, "# ovlp time-resolved metrics v1") {
		t.Errorf("CSV header missing:\n%.120s", a)
	}
	if !strings.Contains(a, "phase,kind,") || !strings.Contains(a, "cell,rank,") {
		t.Error("CSV missing phase or cell sections")
	}
}

func TestOvlprofUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := ovlprofMain([]string{}, &out, &errb); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := ovlprofMain([]string{"-timeresolved", "-folded", "x.json"}, &out, &errb); code != 2 {
		t.Errorf("-timeresolved -folded exited %d, want 2", code)
	}
	if code := ovlprofMain([]string{"-csv", "-json", "x.json"}, &out, &errb); code != 2 {
		t.Errorf("-csv -json exited %d, want 2", code)
	}
}

func TestDiagnoseModes(t *testing.T) {
	path := tracedRun(t)
	var out, errb bytes.Buffer
	if code := ovlprofMain([]string{"-diagnose", path}, &out, &errb); code != 0 {
		t.Fatalf("-diagnose exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "findings:") {
		t.Errorf("-diagnose text missing findings header:\n%s", out.String())
	}
	out.Reset()
	if code := ovlprofMain([]string{"-diagnose", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("-diagnose -json exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"schema": 1`) || !strings.Contains(out.String(), `"findings"`) {
		t.Errorf("-diagnose -json missing schema/findings:\n%s", out.String())
	}
	if code := ovlprofMain([]string{"-diagnose", "-csv", path}, &out, &errb); code != 2 {
		t.Errorf("-diagnose -csv exited %d, want 2", code)
	}
	if code := ovlprofMain([]string{"-diagnose", "-timeresolved", path}, &out, &errb); code != 2 {
		t.Errorf("-diagnose -timeresolved exited %d, want 2", code)
	}
}
