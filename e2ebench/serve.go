package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/sxe"
)

// serveDeck is the serve-mixed program mix at scale 0.1. Reads and
// patches draw their base program from it; gcc's second card puts the
// median patch inside gcc's share (40-80% of the size-sorted patches).
var serveDeck = []struct {
	name   string
	weight int
}{
	{"perl", 1}, {"vortex", 1}, {"gcc", 2}, {"sqlservr", 1},
}

const (
	serveScale = 0.1

	// patchesPerBase distinct single-routine body edits per base
	// program, sent round-robin. 4 bases + 16 patched programs exceed
	// the daemon's 16-slot program cache, so patching evicts programs,
	// while all their analyses fit the 64-slot analysis cache.
	patchesPerBase = 4

	// batchSize is the number of queries in one /v1/batch request.
	batchSize = 16
)

// Request kinds; the reads come first, in readDeck order.
const (
	kindSummary = iota
	kindLiveness
	kindCallSite
	kindBatch
	kindPatch
	numKinds
)

var kindNames = [numKinds]string{"summary", "liveness", "callsite", "batch", "patch"}

// readDeck is the read mix per 49 reads: 30 summary, 10 liveness, 5
// callsite, 4 batch. Every 50th request is a patch, so the traffic is
// 60% summary, 20% liveness, 10% callsite, 8% batch and 2% patch.
// Patches are evenly spaced rather than shuffled in: two shuffled
// patches that happen to land together hold both client connections
// for a whole re-analysis, and how often that happened would decide
// read_ms_p99.
var readDeck = []int{30, 10, 5, 4}

const patchEvery = 50

// readPool is how many distinct requests of each read kind are
// prepared per base program; patched programs get one eighth.
var readPool = [kindPatch]int{64, 32, 16, 8}

// request is one prepared HTTP request with its expected answer.
type request struct {
	kind int
	path string
	body []byte
	// want is the verified reply of a read. A read's reply is
	// deterministic, so every later reply must equal it byte for byte.
	want  []byte
	patch *patchCase
}

// patchCase is one prepared /v1/patch request.
type patchCase struct {
	req    *request
	baseID string
	id     string // the patched program's content-hash ID
	// routines is the from-scratch analysis's summaries, compacted
	// JSON; the reply's analysis document must carry exactly these.
	routines []byte
	reads    [kindPatch][]*request // reads on the patched program
	mutant   *prog.Program         // the edited program
}

type serveProgram struct {
	id      string
	load    []byte         // the /v1/programs request that loads it
	ref     *core.Analysis // the library's analysis of the program
	reads   [kindPatch][]*request
	patches []*patchCase
}

// serveState is a running daemon with its prepared traffic.
type serveState struct {
	cancel context.CancelFunc
	done   chan error
	hc     *http.Client
	url    string
	progs  []*serveProgram
	weight []int
	// prepared counts the requests sent at set-up; badSetup those whose
	// reply disagreed with the library.
	prepared, badSetup int
	// tamper, when set, alters one reply body (a planted fault).
	tamper func(path string, body []byte) []byte
}

// setupServe starts a daemon on a loopback listener, loads and warms
// the base programs, sends every prepared patch once, and records the
// verified reply of every prepared read.
func setupServe(c config) (*serveState, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &serveState{
		cancel: cancel,
		done:   make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		url: "http://" + ln.Addr().String(),
	}
	srv := serve.New(serve.Config{Parallelism: workers})
	go func() { st.done <- srv.Serve(ctx, ln) }()
	r := rand.New(rand.NewSource(int64(subSeed(c.seed, 100))))
	for i, e := range serveDeck {
		sp, err := st.loadBase(c, r, i, e.name)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		st.progs = append(st.progs, sp)
		st.weight = append(st.weight, e.weight)
	}
	// The patched programs have pushed the first bases out of the
	// program cache; loading them again puts them back, and the reads
	// keep them there.
	for _, sp := range st.progs {
		if status, _, err := st.post("/v1/programs", sp.load); err != nil || status != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("reload: status %d: %v", status, err)
		}
	}
	return st, nil
}

// tamperOnce returns a reply filter that changes one byte of the first
// summary reply it sees.
func tamperOnce() func(string, []byte) []byte {
	var once sync.Once
	return func(path string, body []byte) []byte {
		if path == "/v1/summary" {
			once.Do(func() {
				body = bytes.Clone(body)
				body[len(body)/2] ^= 1
			})
		}
		return body
	}
}

func (st *serveState) close() {
	st.cancel()
	<-st.done
	st.hc.CloseIdleConnections()
}

// post sends body to path and returns the status and reply.
func (st *serveState) post(path string, body []byte) (int, []byte, error) {
	resp, err := st.hc.Post(st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if st.tamper != nil {
		data = st.tamper(path, data)
	}
	return resp.StatusCode, data, err
}

// loadBase generates base program i, loads it, prepares its reads and
// patches, and warms the daemon with each of them once.
func (st *serveState) loadBase(c config, r *rand.Rand, i int, name string) (*serveProgram, error) {
	prof, ok := progen.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", name)
	}
	p := progen.Generate(prof.Scale(serveScale*c.scale), progen.DefaultOptions(subSeed(c.seed, i)))
	image, err := sxe.Encode(p)
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(api.LoadRequest{SXE: image})
	status, reply, err := st.post("/v1/programs", body)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("load: status %d: %v", status, err)
	}
	var lr api.LoadResponse
	if err := json.Unmarshal(reply, &lr); err != nil {
		return nil, err
	}
	opts := api.Options{}.AnalysisOptions(core.WithParallelism(workers))
	ref, err := core.Analyze(p, opts...)
	if err != nil {
		return nil, err
	}
	sp := &serveProgram{id: lr.Program.ID, load: body, ref: ref}
	for k := range sp.reads {
		if sp.reads[k], err = st.prepareReads(r, k, sp.id, ref, readPool[k]); err != nil {
			return nil, err
		}
	}
	for j := 0; j < patchesPerBase; j++ {
		pc, err := st.preparePatch(r, p, sp.id, opts)
		if err != nil {
			return nil, err
		}
		sp.patches = append(sp.patches, pc)
	}
	return sp, nil
}

// preparePatch makes one single-routine body edit of p, sends it as
// that routine's assembly, checks the reply against a from-scratch
// analysis of the edited program, and prepares reads on the result.
func (st *serveState) preparePatch(r *rand.Rand, p *prog.Program, baseID string, opts []core.Option) (*patchCase, error) {
	m, _ := progen.MutateKind(p, r.Uint64(), progen.MutBodyEdit)
	ri := -1
	for i := range m.Routines {
		if m.Routines[i] != p.Routines[i] {
			ri = i
		}
	}
	if ri < 0 {
		return nil, fmt.Errorf("mutation edited no routine")
	}
	name := m.Routines[ri].Name
	asm, err := routineAsm(m, name)
	if err != nil {
		return nil, err
	}
	// The library's reading of the patch: the base program with the
	// routine re-assembled from the text the request carries. (The
	// assembler and progen encode unused instruction fields differently,
	// so this program, not m, has the content hash the daemon reports.)
	patched := p.ShallowClone()
	nr, err := prog.AssembleRoutine(patched, name, asm)
	if err != nil {
		return nil, err
	}
	nr.AddressTaken = nr.AddressTaken || p.Routines[ri].AddressTaken
	patched.Routines[ri] = nr
	patched.RebuildIndex()
	image, err := sxe.Encode(patched)
	if err != nil {
		return nil, err
	}
	m = patched
	fresh, err := core.Analyze(m, opts...)
	if err != nil {
		return nil, err
	}
	routines := make([]api.RoutineSummary, len(m.Routines))
	for i := range routines {
		routines[i] = api.SummaryOf(fresh, i)
	}
	want, _ := json.Marshal(routines)
	body, _ := json.Marshal(api.PatchRequest{
		Program:  baseID,
		Routines: []api.RoutinePatch{{Routine: name, Asm: asm}},
	})
	pc := &patchCase{baseID: baseID, id: api.ProgramID(image), routines: want, mutant: m}
	pc.req = &request{kind: kindPatch, path: "/v1/patch", body: body, patch: pc}
	st.prepared++
	status, reply, err := st.post(pc.req.path, body)
	if err != nil {
		return nil, err
	}
	if !pc.check(status, reply) {
		st.badSetup++
	}
	for k := range pc.reads {
		if pc.reads[k], err = st.prepareReads(r, k, pc.id, fresh, readPool[k]/8); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// routineAsm renders one routine of p as the single-routine assembly a
// patch request carries: its section of the disassembly without the
// .routine line.
func routineAsm(p *prog.Program, name string) (string, error) {
	text := prog.Disassemble(p)
	header := ".routine " + name + "\n"
	i := strings.Index(text, header)
	if i < 0 {
		return "", fmt.Errorf("routine %s missing from disassembly", name)
	}
	body := text[i+len(header):]
	if j := strings.Index(body, "\n.routine "); j >= 0 {
		body = body[:j]
	}
	return body, nil
}

// check reports whether a patch reply is a success carrying the patched
// program's identity and exactly the from-scratch summaries.
func (pc *patchCase) check(status int, reply []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var pr struct {
		Base    string          `json:"base"`
		Program api.ProgramInfo `json:"program"`
		Doc     struct {
			Routines json.RawMessage `json:"routines"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal(reply, &pr); err != nil {
		return false
	}
	var got bytes.Buffer
	if err := json.Compact(&got, pr.Doc.Routines); err != nil {
		return false
	}
	return pr.Base == pc.baseID && pr.Program.ID == pc.id && bytes.Equal(got.Bytes(), pc.routines)
}

// prepareReads draws n distinct-seeded read requests of one kind on
// program id, computes each answer with the library, sends each once,
// and keeps the reply as the expected answer if it matches.
func (st *serveState) prepareReads(r *rand.Rand, kind int, id string, a *core.Analysis, n int) ([]*request, error) {
	reqs := make([]*request, 0, n)
	for tries := 0; len(reqs) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("program %s: no %s query found", id, kindNames[kind])
		}
		var req, want any
		if kind == kindBatch {
			br := api.BatchRequest{Program: id}
			resp := api.BatchResponse{SchemaVersion: api.SchemaVersion, Program: id}
			for len(br.Queries) < batchSize {
				if q, res, ok := drawQuery(r, r.Intn(kindBatch), a); ok {
					br.Queries = append(br.Queries, q)
					resp.Results = append(resp.Results, res)
				}
			}
			req, want = br, resp
		} else {
			q, res, ok := drawQuery(r, kind, a)
			if !ok {
				continue
			}
			switch kind {
			case kindSummary:
				req = api.SummaryRequest{Program: id, Routine: q.Routine}
				want = api.SummaryResponse{SchemaVersion: api.SchemaVersion, Program: id, Summary: *res.Summary}
			case kindLiveness:
				req = api.LivenessRequest{Program: id, Routine: q.Routine, Instr: q.Instr}
				want = api.LivenessResponse{SchemaVersion: api.SchemaVersion, Program: id, Point: *res.Liveness}
			case kindCallSite:
				req = api.CallSiteRequest{Program: id, Routine: q.Routine, Instr: q.Instr}
				want = api.CallSiteResponse{SchemaVersion: api.SchemaVersion, Program: id, CallSite: *res.CallSite}
			}
		}
		reqs = append(reqs, st.prepare(kind, "/v1/"+kindNames[kind], req, want))
	}
	return reqs, nil
}

// drawQuery draws one point query of the given kind and answers it with
// the library functions the daemon's handlers use.
func drawQuery(r *rand.Rand, kind int, a *core.Analysis) (api.Query, api.QueryResult, bool) {
	ri := r.Intn(len(a.Prog.Routines))
	rt := a.Prog.Routines[ri]
	q := api.Query{Kind: kindNames[kind], Routine: rt.Name}
	res := api.QueryResult{Kind: q.Kind}
	switch kind {
	case kindSummary:
		sum := api.SummaryOf(a, ri)
		res.Summary = &sum
	case kindLiveness:
		q.Instr = r.Intn(len(rt.Code))
		pt, err := api.LivenessPointOf(a, ri, q.Instr)
		if err != nil {
			return q, res, false
		}
		res.Liveness = &pt
	case kindCallSite:
		var calls []int
		for i := range rt.Code {
			if op := rt.Code[i].Op; op == isa.OpJsr || op == isa.OpJsrInd {
				calls = append(calls, i)
			}
		}
		if len(calls) == 0 {
			return q, res, false
		}
		q.Instr = calls[r.Intn(len(calls))]
		eff, err := api.CallSiteEffectOf(a, ri, q.Instr)
		if err != nil {
			return q, res, false
		}
		res.CallSite = &eff
	}
	return q, res, true
}

// prepare encodes one read, sends it once, and records its reply as the
// expected answer when the reply equals want (compared as compact
// JSON); otherwise the set-up failure is counted and the request keeps
// the library's answer, so every later reply fails too.
func (st *serveState) prepare(kind int, path string, req, want any) *request {
	body, _ := json.Marshal(req)
	wantJSON, _ := json.Marshal(want)
	rq := &request{kind: kind, path: path, body: body, want: wantJSON}
	st.prepared++
	status, reply, err := st.post(path, body)
	var got bytes.Buffer
	if err != nil || status != http.StatusOK || json.Compact(&got, reply) != nil || !bytes.Equal(got.Bytes(), wantJSON) {
		st.badSetup++
		return rq
	}
	rq.want = reply
	return rq
}
