// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload, generated with progen from a seed, in a
// single process:
//
//	go run . --workload analyze-corpus --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - analyze-corpus: a closed loop of sxe.Decode + core.Analyze over ten
//     Table 2 profiles at scale 0.1; every 10th op also restores a
//     snapshot of its program.
//   - optimize-verify: a closed loop of opt.Optimize over six runnable
//     programs pre-optimized by opt.CompilerOptions; the emulator checks
//     every result outside the timed op.
//   - serve-mixed: an open loop of /v1 reads and patches against an
//     in-process serve.Server on a loopback listener, at a fixed offered
//     rate, followed by a reads-only closed loop and a doubling rate
//     ladder.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the measured time is split: an untraced half, then a
// traced half whose spans (recorded around the benchmark's own calls
// into each layer's public functions) give the per-layer metrics and
// the layer self times; trace_overhead_pct compares the two halves.
//
// Every op's output is checked outside its timed window. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The lines before it are a human-readable report that names each
// workload-specific metric with its unit and sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workers is the parallelism of every analysis, optimizer and server
// worker pool, and the number of client connections. It is fixed so
// that results compare across machines with more cores.
const workers = 2

// setups is how many times each workload sets up per run; setup_s is
// their median and the last set-up is the one measured.
const setups = 3

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	// scale multiplies every profile scale. Real runs use 1; the
	// benchmark's own tests shrink the programs.
	scale float64

	// fault plants one wrong answer, so tests can show that the
	// correctness checks count it.
	fault fault
}

// fault names a deliberately wrong answer a test plants.
type fault int

const (
	noFault      fault = iota
	faultSummary       // flip one register of one analyze-corpus op's summaries
	faultEmu           // alter one optimize-verify emulator output
	faultHTTP          // alter one serve-mixed reply body
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportLine is one workload-specific metric of the human-readable
// report: the issue-level names (analyze_ms_p50, read_ms_p99, ...) that
// the generic end-to-end metrics stand for on this workload.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // generic end-to-end metrics
	layer             map[string]float64 // per-layer metrics (traced runs)
	report            []reportLine
}

func (o *outcome) add(name string, v float64, unit, note string) {
	o.report = append(o.report, reportLine{name, v, unit, note})
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"analyze-corpus":  runCorpus,
	"optimize-verify": runOptimize,
	"serve-mixed":     runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "analyze-corpus, optimize-verify or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1}
	res, err := execute(cfg, fn, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// execute runs one workload and turns its outcome into the result
// object, writing the human-readable report to w.
func execute(cfg config, fn func(config) (*outcome, error), w io.Writer) (*result, error) {
	start := time.Now()
	out, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %gs", cfg.seconds)
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t (%.1fs wall)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, time.Since(start).Seconds())
	fmt.Fprintf(w, "  %-34s %14.6f %s\n", "error_rate", float64(out.failed)/float64(out.attempted),
		fmt.Sprintf("ratio (%d failed of %d attempted)", out.failed, out.attempted))
	for _, l := range out.report {
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", l.name, l.value, l.unit, l.note)
	}
	if cfg.traced {
		// A layer metric the workload does not exercise reads 0.
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.layer[m.name], m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := out.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("workload reported no %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}
