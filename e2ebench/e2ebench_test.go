package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny runs a workload on programs shrunk to a fifth of their size for
// about a second of measuring.
func tiny(t *testing.T, workload string, traced bool, f fault) (*result, string) {
	t.Helper()
	c := config{workload: workload, seed: 7, seconds: 1, traced: traced, scale: 0.2, fault: f}
	var report bytes.Buffer
	res, err := execute(c, workloads[workload], &report)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, report.String()
}

// reportNames are the workload-level metrics each report must name.
var reportNames = map[string][]string{
	"analyze-corpus": {"setup_s", "analyze_ms_p50", "analyze_ms_p90", "analyze_kinstr_per_s",
		"peak_rss_mb", "restore_ms_p50"},
	"optimize-verify": {"setup_s", "optimize_ms_p50", "optimize_ms_p90", "opt_dyn_reduction_pct",
		"opt_static_reduction_pct", "peak_rss_mb"},
	"serve-mixed": {"setup_s", "read_ms_p50", "read_ms_p99", "write_ms_p50", "write_ms_p99",
		"serve_max_qps", "peak_rss_mb"},
}

func TestEveryMetricPrinted(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, report := tiny(t, name, false, noFault)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %t, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
			for _, n := range append([]string{"error_rate"}, reportNames[name]...) {
				if !strings.Contains(report, "  "+n+" ") {
					t.Errorf("report does not name %s:\n%s", n, report)
				}
			}

			res, _ = tiny(t, name, true, noFault)
			if !res.Correct {
				t.Errorf("traced run: %d of %d failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer)
			self := 0.0
			for _, l := range layers {
				self += res.Metrics[l+".self_ms"].Value
			}
			if self <= 0 {
				t.Errorf("no layer self time recorded")
			}
		})
	}
}

// checkMetrics requires exactly the defined metrics, each with its unit.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestPlantedFaultsCounted shows that the checks are not vacuous: one
// wrong answer planted in each workload is counted as a failure.
func TestPlantedFaultsCounted(t *testing.T) {
	for _, tc := range []struct {
		workload string
		fault    fault
	}{
		{"analyze-corpus", faultSummary},
		{"optimize-verify", faultEmu},
		{"serve-mixed", faultHTTP},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res, _ := tiny(t, tc.workload, false, tc.fault)
			if res.Correct || res.Failed != 1 {
				t.Errorf("correct %t, %d failed; want exactly the planted failure", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's metric and
// workload lists the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
	for _, s := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(s.json) != len(s.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d here", len(s.json), len(s.defs))
			continue
		}
		for i, m := range s.json {
			if m.Name != s.defs[i].name || m.Unit != s.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), here %s (%s)",
					i, m.Name, m.Unit, s.defs[i].name, s.defs[i].unit)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "analyze-corpus", "--trace", "2"},
		{"--workload", "analyze-corpus", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
