package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"ovlp/internal/diagnose"
	"ovlp/internal/timeres"
)

const testScenario = `name: top-test
seed: 7
procs: 2
deadline: 2s
workload:
  kind: exchange
  size: 64K
  reps: 4
  compute: 200us
`

// TestFinalRender pins the -refresh 0 mode: no live redraws, one full
// table render after the run, exit 0.
func TestFinalRender(t *testing.T) {
	var out, errb bytes.Buffer
	if code := ovltopMain([]string{"-refresh", "0", writeScenario(t, t.TempDir(), "top-test.yaml", testScenario)}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if strings.Contains(s, "\x1b[2J") {
		t.Error("-refresh 0 cleared the screen")
	}
	for _, want := range []string{"scenario top-test", "windows", "phases", "PE", "findings"} {
		if !strings.Contains(s, want) {
			t.Errorf("final render missing %q:\n%s", want, s)
		}
	}
}

func TestOvltopUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := ovltopMain(nil, &out, &errb); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := ovltopMain([]string{"no-such-file.yaml"}, &out, &errb); code != 1 {
		t.Errorf("missing scenario exited %d, want 1", code)
	}
}

// TestWebHandler drives the embedded view's endpoints.
func TestWebHandler(t *testing.T) {
	an := timeres.New(timeres.Options{})
	var fh findingsHolder
	srv := httptest.NewServer(newHandler(an, "top-test", &fh))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if _, err := page.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	html := page.String()
	for _, want := range []string{"<!doctype html", "ovltop — top-test", "data.json"} {
		if !strings.Contains(html, want) {
			t.Errorf("page missing %q", want)
		}
	}

	res, err = srv.Client().Get(srv.URL + "/data.json")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var snap struct {
		Schema int   `json:"schema"`
		Ranks  []int `json:"ranks"`
	}
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatalf("data.json not valid JSON: %v", err)
	}
	if snap.Schema != timeres.Schema {
		t.Errorf("schema = %d, want %d", snap.Schema, timeres.Schema)
	}

	// findings.json is null until the run lands, then the holder's
	// report verbatim.
	fetchFindings := func() string {
		t.Helper()
		res, err := srv.Client().Get(srv.URL + "/findings.json")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		return body.String()
	}
	if got := strings.TrimSpace(fetchFindings()); got != "null" {
		t.Errorf("findings.json before run = %q, want null", got)
	}
	fh.set(&diagnose.Report{Schema: 1, Findings: []diagnose.Finding{
		{Kind: "straggler-rank", Severity: "warn", Summary: "rank 1 lags"},
	}})
	var rep diagnose.Report
	if err := json.Unmarshal([]byte(fetchFindings()), &rep); err != nil {
		t.Fatalf("findings.json not valid JSON: %v", err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != "straggler-rank" {
		t.Errorf("findings.json = %+v", rep)
	}

	res, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Errorf("unknown path returned %d", res.StatusCode)
	}
}

// TestBarAndStrip pin the tiny render helpers.
func TestBarAndStrip(t *testing.T) {
	if got := bar(0, 4); got != "····" {
		t.Errorf("bar(0) = %q", got)
	}
	if got := bar(1, 4); got != "████" {
		t.Errorf("bar(1) = %q", got)
	}
	if got := bar(0.5, 4); strings.Count(got, "█") != 2 {
		t.Errorf("bar(0.5) = %q", got)
	}
	strip := phaseStrip([]timeres.Slice{
		{Kind: "compute", Start: 0, End: 300},
		{Kind: "exchange", Start: 300, End: 400},
	}, 8)
	if !strings.Contains(strip, "C") || !strings.Contains(strip, "X") {
		t.Errorf("phase strip %q lacks both kinds", strip)
	}
}
