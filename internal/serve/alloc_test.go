package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// TestCachedReadAllocBudget bounds the allocations of a cached read
// served straight through the handler (no network, no client): request
// decode, cache hit, answer, JSON reply. A read answers from the
// frozen document and memoized liveness, so its cost is the request
// and the reply, not the analysis; a regression that re-renders
// register sets or re-scans the reply shows up here as a count, on any
// machine.
func TestCachedReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	s := New(Config{Parallelism: 1})
	h := s.Handler()
	serve := func(route string, payload []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(payload)))
		return w
	}
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	p := progen.Generate(progen.TestProfile(60), progen.DefaultOptions(1))
	image, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	w := serve("/v1/programs", mustJSON(api.LoadRequest{SXE: image}))
	var loaded api.LoadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &loaded); err != nil {
		t.Fatalf("load: %v: %s", err, w.Body.Bytes())
	}
	id := loaded.Program.ID
	if w := serve("/v1/callgraph", mustJSON(api.CallGraphRequest{Program: id})); w.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", w.Code, w.Body.Bytes())
	}
	callName, callInstr := "", -1
	for _, r := range p.Routines {
		for i, in := range r.Code {
			if in.Op.IsCall() && callInstr < 0 {
				callName, callInstr = r.Name, i
			}
		}
	}
	if callInstr < 0 {
		t.Fatal("generated program has no call site")
	}

	var batch []api.Query
	for i := 0; i < 16; i++ {
		name := p.Routines[i%len(p.Routines)].Name
		switch i % 4 {
		case 0, 1:
			batch = append(batch, api.Query{Kind: "summary", Routine: name})
		case 2:
			batch = append(batch, api.Query{Kind: "liveness", Routine: name, Instr: 0})
		case 3:
			batch = append(batch, api.Query{Kind: "callsite", Routine: callName, Instr: callInstr})
		}
	}

	// Each budget is the measured count plus about 10%. When register
	// names were formatted per call, summaries rendered per request and
	// replies indented by json.MarshalIndent, the same reads cost
	// summary 241, liveness 158, callsite 86 and batch 2298 allocs/op.
	for _, tc := range []struct {
		route  string
		req    any
		budget float64
	}{
		{"/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}, 40},
		{"/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 0}, 42},
		{"/v1/callsite", api.CallSiteRequest{Program: id, Routine: callName, Instr: callInstr}, 43},
		{"/v1/batch", api.BatchRequest{Program: id, Queries: batch}, 115},
	} {
		payload := mustJSON(tc.req)
		w := serve(tc.route, payload)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.route, w.Code, w.Body.Bytes())
		}
		if bytes.Contains(w.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("%s: a query failed: %s", tc.route, w.Body.Bytes())
		}
		n := testing.AllocsPerRun(100, func() { serve(tc.route, payload) })
		t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.route, n, tc.budget)
		if n > tc.budget {
			t.Errorf("%s: %.0f allocs/op, budget %.0f", tc.route, n, tc.budget)
		}
	}
}
