// Ovlp drives every experiment of the repository through one program:
// `ovlp <subcommand> [flags]`. Each subcommand regenerates a figure or
// table of the paper, runs a study, or analyzes what another one wrote;
// `ovlp -h` lists them and `ovlp <subcommand> -h` lists its flags.
//
// A subcommand exits 0 on success and on -h, 1 when a run or an output
// fails, and 2 on a bad flag or configuration, which it rejects before
// simulating. Error messages carry the subcommand's name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// subcommands lists the experiments in the order `ovlp -h` prints them.
var subcommands = []struct {
	name, summary string
	main          func(args []string, stdout, stderr io.Writer) int
}{
	{"sweep", "a committed spec: figures 3-20, COMB", sweepMain},
	{"calibrate", "transfer-time table for the instrumentation", calibrateMain},
	{"timeline", "ASCII activity chart of a small run", timelineMain},
	{"collstudy", "nonblocking collectives by algorithm and progress mode", collstudyMain},
	{"faultstudy", "overlap bounds under a fault-injection sweep", faultstudyMain},
	{"ftstudy", "cost of a crash-stop rank failure", ftstudyMain},
	{"scenario", "declarative chaos scenarios and their goldens", scenarioMain},
	{"ovltop", "live time-resolved view of a scenario", ovltopMain},
	{"ovlprof", "offline blame profile of an exported trace", ovlprofMain},
	{"ovldiff", "differential profile of two exported traces", ovldiffMain},
	{"tracecat", "merge, filter and summarize exported traces", tracecatMain},
	{"ovlpreport", "inspect and merge per-rank report files", ovlpreportMain},
	{"benchgate", "benchmark-regression gate", benchgateMain},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to the named subcommand and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := newFlagSet("ovlp", stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ovlp [-version] <subcommand> [flags]\n\nsubcommands:")
		for _, c := range subcommands {
			fmt.Fprintf(stderr, "  %-13s %s\n", c.name, c.summary)
		}
	}
	ver := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *ver {
		fmt.Fprintln(stdout, version())
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	for _, c := range subcommands {
		if c.name == fs.Arg(0) {
			// A failed run that cluster.Run panics with exits 1 like any
			// other; a panic that is not an error, or a runtime one, is a bug.
			defer func() {
				if p := recover(); p != nil {
					err, ok := p.(error)
					if _, bug := p.(runtime.Error); !ok || bug {
						panic(p)
					}
					code = failWith(stderr, c.name, 1)(err)
				}
			}()
			return c.main(fs.Args()[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "ovlp: unknown subcommand %q\n", fs.Arg(0))
	fs.Usage()
	return 2
}

// newFlagSet returns a subcommand's flag set, which reports parse
// errors and -h on stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// failWith returns the function a subcommand exits through: it prints
// the error on stderr under the subcommand's name and returns code.
func failWith(stderr io.Writer, name string, code int) func(error) int {
	return func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return code
	}
}

// parseExit is the exit status for a failed flag parse: 0 when -h asked
// for the usage, 2 for a bad flag.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// version returns the program's build identity from the embedded build
// info: module version, VCS revision (with a +dirty marker when the
// working tree was modified) and the Go toolchain. It never fails — a
// stripped binary reports "ovlp devel".
func version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "ovlp devel"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	out := "ovlp " + ver
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		out += " " + rev + dirty
	}
	if bi.GoVersion != "" {
		out += " " + bi.GoVersion
	}
	return out
}
