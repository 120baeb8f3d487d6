package nas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ovlp/internal/armci"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
)

// armciDigests pins everything a traced one-sided MG run makes
// observable — the Chrome export, every process's report as JSON, the
// run's duration and library times, the ground-truth transfers and the
// error text — one SHA-256 per run. They were generated on the code
// that predates the library-shared call bracket; a digest that moves
// means a change altered what ARMCI runs report, so never regenerate
// them on changed code.
var armciDigests = map[string]string{
	"blocking/cost=false/drop=0":        "50794c988ad2f2d8249cb7697aab35397be99ab01d3f047c82cdfa4354118e8b",
	"blocking/cost=false/drop=0.05":     "151648e85fbec18f66be3d75322982045abb9472902a4e402583d1d36f7e1f43",
	"blocking/cost=true/drop=0":         "9a4436ac6a582744bc2bb4c6609cad941c1d56c25c5eb82f55350fc012eca426",
	"blocking/cost=true/drop=0.05":      "048f8d12412a263fe845cbae613b71b41db40ea780e34dfa35ce04893ded877c",
	"non-blocking/cost=false/drop=0":    "153e89f9004704bb3dec0dc73c13c86a3bbe070acbbd8423be8108d53d50fadf",
	"non-blocking/cost=false/drop=0.05": "038d3e83a4d39cfdfd053c3b10e50f227e0d7341c96f364e7d3b82b9bbf19d67",
	"non-blocking/cost=true/drop=0":     "1aa09dd035cddd7b0dca87375431046de0192be4ea0bf175c434caa389b4e8c4",
	"non-blocking/cost=true/drop=0.05":  "b85cb6b6e7346e5a7a4a7346cf3fe968ed7c7caf67809521bbd85a3b3c982cde",
}

// armciDigest runs MG class S on 4 processes for 2 iterations, traced
// and with ground truth retained, and hashes its observables.
func armciDigest(t *testing.T, variant MGVariant, modelCost bool, faults *fabric.FaultPlan) string {
	t.Helper()
	tr := trace.New(trace.Options{})
	res, err := cluster.RunARMCI(cluster.ARMCIConfig{
		Procs:       4,
		ARMCI:       armci.Config{Instrument: &overlap.Instrument{ModelCost: modelCost}},
		RecordTruth: true,
		Faults:      faults,
		Trace:       tr,
	}, func(pr *armci.Proc) {
		RunMGARMCI(pr, Params{Class: ClassS, MaxIters: 2}, variant)
	})
	h := sha256.New()
	if err := tr.WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		var b bytes.Buffer
		if err := rep.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		h.Write(b.Bytes())
	}
	fmt.Fprintf(h, "duration %d libtimes %v err %v\n", res.Duration, res.LibTimes, err)
	for _, x := range res.Transfers {
		fmt.Fprintf(h, "%+v\n", x)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestARMCITraceDigests(t *testing.T) {
	for _, variant := range []MGVariant{MGBlocking, MGNonblocking} {
		for _, modelCost := range []bool{false, true} {
			for _, drop := range []float64{0, 0.05} {
				var faults *fabric.FaultPlan
				if drop > 0 {
					faults = &fabric.FaultPlan{Seed: 7, Default: fabric.LinkFaults{DropRate: drop}}
				}
				name := fmt.Sprintf("%s/cost=%t/drop=%g", variant, modelCost, drop)
				t.Run(name, func(t *testing.T) {
					if got := armciDigest(t, variant, modelCost, faults); got != armciDigests[name] {
						t.Errorf("digest %s, want %s", got, armciDigests[name])
					}
				})
			}
		}
	}
}
