package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"testing/iotest"

	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// referenceHandler serves /v1/seeds and /v1/spread with encoding/json, as
// the handlers did before the codec: json.Decoder with
// DisallowUnknownFields for the body, json.Marshal of the response
// structs, Header().Set for every header. Everything else (admission,
// validation, cache, oracle) is s's own, so a server and its reference
// differ only in the codec.
func referenceHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/spread", s.admit("/v1/spread", s.referenceSpread))
	mux.HandleFunc("POST /v1/seeds", s.admit("/v1/seeds", s.referenceSeeds))
	return mux
}

func referenceWriteJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func referenceWriteError(w http.ResponseWriter, status int, msg string) {
	body, err := json.Marshal(errorResponse{Error: msg})
	if err != nil {
		body = []byte(`{"error":"internal error"}`)
	}
	referenceWriteJSON(w, status, body)
}

func referenceDecodeBody(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		referenceWriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

func (s *Server) referenceCached(w http.ResponseWriter, key string, compute func() ([]byte, int, string)) {
	if body, ok := s.cache.Get(key); ok {
		s.met.cacheHit()
		w.Header().Set("X-Cache", "hit")
		referenceWriteJSON(w, http.StatusOK, body)
		return
	}
	s.met.cacheMiss()
	body, status, msg := compute()
	if body == nil {
		referenceWriteError(w, status, msg)
		return
	}
	s.cache.Put(key, body)
	w.Header().Set("X-Cache", "miss")
	referenceWriteJSON(w, http.StatusOK, body)
}

func (s *Server) referenceSpread(w http.ResponseWriter, r *http.Request) {
	var req spreadRequest
	if !referenceDecodeBody(w, r, &req) {
		return
	}
	seeds, err := canonicalSeeds(req.Seeds, s.cfg.Graph.N())
	if err != nil {
		referenceWriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.EvalSims < 0 || req.EvalSims > s.cfg.MaxEvalSims {
		referenceWriteError(w, http.StatusBadRequest,
			fmt.Sprintf("evalsims must be in [0, %d]", s.cfg.MaxEvalSims))
		return
	}
	budget, err := s.requestBudget(req.BudgetMS)
	if err != nil {
		referenceWriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	cur := s.lc.current()
	reqKey := spreadCacheKey(seeds, req.EvalSims)
	s.referenceCached(w, genCacheKey(cur.gen, reqKey), func() ([]byte, int, string) {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		resp := spreadResponse{
			Backend: cur.oracle.Backend(), Seeds: seeds,
			EvalSims: req.EvalSims, Degraded: cur.degraded,
		}
		if req.EvalSims > 0 {
			est, err := diffusion.EstimateSpreadParallelCtx(ctx, s.cfg.Graph, s.cfg.Model,
				seeds, req.EvalSims, s.requestSeed(reqKey), 0)
			if err != nil {
				status, msg := mapOracleErr(err)
				return nil, status, msg
			}
			resp.Spread = est.Mean
			se := est.StdErr
			resp.StdErr = &se
		} else {
			sp, err := cur.oracle.Spread(ctx, seeds)
			if err != nil {
				status, msg := mapOracleErr(err)
				return nil, status, msg
			}
			resp.Spread = sp
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, http.StatusInternalServerError, "encoding failure"
		}
		return body, 0, ""
	})
}

func (s *Server) referenceSeeds(w http.ResponseWriter, r *http.Request) {
	var req seedsRequest
	if !referenceDecodeBody(w, r, &req) {
		return
	}
	if req.K < 1 || req.K > s.cfg.MaxK {
		referenceWriteError(w, http.StatusBadRequest,
			fmt.Sprintf("k must be in [1, %d]", s.cfg.MaxK))
		return
	}
	budget, err := s.requestBudget(req.BudgetMS)
	if err != nil {
		referenceWriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	cur := s.lc.current()
	reqKey := "seeds|k=" + strconv.Itoa(req.K)
	s.referenceCached(w, genCacheKey(cur.gen, reqKey), func() ([]byte, int, string) {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		seeds, spread, err := cur.oracle.Seeds(ctx, req.K)
		if err != nil {
			status, msg := mapOracleErr(err)
			return nil, status, msg
		}
		body, err := json.Marshal(seedsResponse{
			Backend: cur.oracle.Backend(), K: req.K, Seeds: seeds, Spread: spread,
			Degraded: cur.degraded,
		})
		if err != nil {
			return nil, http.StatusInternalServerError, "encoding failure"
		}
		return body, 0, ""
	})
}

// reply is one recorded response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func serveOnce(h http.Handler, path string, body []byte) reply {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

// codecPair stands up a server and its encoding/json reference on one
// config; each has its own cache, so both see the same hits and misses.
func codecPair(t testing.TB, cfg Config) (got, want http.Handler) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), referenceHandler(ref)
}

// requireSameReply sends one request to both handlers and requires the
// same status, headers and body.
func requireSameReply(t testing.TB, got, want http.Handler, path string, body []byte) reply {
	t.Helper()
	g, w := serveOnce(got, path, body), serveOnce(want, path, body)
	if g.status != w.status || !reflect.DeepEqual(g.header, w.header) || !bytes.Equal(g.body, w.body) {
		t.Fatalf("%s %q: codec answered\n  %d %v %s\nencoding/json answered\n  %d %v %s",
			path, body, g.status, g.header, g.body, w.status, w.header, w.body)
	}
	return g
}

// edgeBodies are request bodies at the fast path's boundary; each is
// sent to both routes.
var edgeBodies = []string{
	` { "k" : 3 ,` + "\t\n\r" + `"budget_ms" : 100 } ` + "\n",
	` {"seeds" : [ 5 , 3,1 ] , "evalsims":0 }`,
	`{"K":3}`,
	`{"Seeds":[1]}`,
	`{"k":3,"x":1}`,
	`{"seedz":[1]}`,
	`{"k":3}junk`,
	`{"k":3} {"k":4}`,
	`{"k":1.0}`,
	`{"k":1e1}`,
	`{"k":07}`,
	`{"k":-0}`,
	`{"k":-1}`,
	`{"k":3,"k":4}`,
	`{"k":null}`,
	`{"k":"3"}`,
	`{"k":true}`,
	`{"\u006b":3}`,
	`{"k":99999999999999999999}`,
	`{"k":3,"budget_ms":-5}`,
	`{"k":3,"budget_ms":9223372036854775808}`,
	`{}`,
	`[]`,
	`null`,
	``,
	`{`,
	`{"k":`,
	`{"seeds":[1,2`,
	`{"seeds":[]}`,
	`{"seeds":null}`,
	`{"seeds":[-1]}`,
	`{"seeds":[-0]}`,
	`{"seeds":[999999]}`,
	`{"seeds":[2147483647]}`,
	`{"seeds":[2147483648]}`,
	`{"seeds":[-2147483649]}`,
	`{"seeds":[1,,2]}`,
	`{"seeds":[1,]}`,
	`{"seeds":[[1]]}`,
	`{"seeds":[1],"seeds":[2]}`,
	`{"seeds":[1],"evalsims":101}`,
	`{"seeds":[1],"evalsims":true}`,
	`{"seeds":[1],"k":3}`,
}

// TestCodecMatchesEncodingJSON replays both imperf serving streams (the
// first 2,000 requests of imload's default mix with the cache on, and of
// the seeds-only stream with k up to 200 and the cache off), the
// determinism tests' requests and the edge bodies against the codec and
// the encoding/json reference: every status, header and body must match.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	g := testGraph(t)
	oracle, err := BuildOracle(context.Background(), "rrset", g, weights.IC, 3000, 42, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name         string
		w            loadgen.Workload
		cacheEntries int
	}{
		{"serve-mixed", loadgen.Workload{Seed: 42, Nodes: g.N()}.WithDefaults(), 0},
		{"serve-seeds", loadgen.Workload{Seed: 42, Nodes: g.N(), SetMin: 1, SetMax: 1, KMin: 1, KMax: 200}, -1},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			got, want := codecPair(t, Config{Oracle: oracle, Graph: g, Model: weights.IC,
				SchemeName: "WC", Seed: 42, CacheEntries: st.cacheEntries})
			hits := 0
			for i := uint64(0); i < 2000; i++ {
				req := st.w.Request(i)
				r := requireSameReply(t, got, want, req.Path, req.Body)
				if r.status != http.StatusOK {
					t.Fatalf("request %d %s: status %d, body %s", i, req.Body, r.status, r.body)
				}
				if r.header.Get("X-Cache") == "hit" {
					hits++
				}
			}
			if (st.cacheEntries < 0) != (hits == 0) {
				t.Fatalf("%d cache hits with CacheEntries %d", hits, st.cacheEntries)
			}
		})
	}

	for _, backend := range Backends() {
		t.Run("determinism/"+backend, func(t *testing.T) {
			o, err := BuildOracle(context.Background(), backend, g, weights.IC, 2000, 42, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, want := codecPair(t, Config{Oracle: o, Graph: g, Model: weights.IC, SchemeName: "WC", Seed: 42})
			for _, req := range []struct{ path, body string }{
				{"/v1/seeds", `{"k":3}`},
				{"/v1/seeds", `{"k":7}`},
				{"/v1/seeds", `{"k":5}`},
				{"/v1/spread", `{"seeds":[5,3,1]}`},
				{"/v1/spread", `{"seeds":[1,3,5]}`},
				{"/v1/spread", `{"seeds":[2,4],"evalsims":150}`},
				{"/v1/spread", `{"seeds":[1,2,3],"evalsims":200}`},
				{"/v1/spread", `{"seeds":[9,4,4,1]}`},
				{"/v1/seeds", `{"k":3}`},
			} {
				requireSameReply(t, got, want, req.path, []byte(req.body))
			}
		})
	}

	t.Run("edge bodies", func(t *testing.T) {
		got, want := codecPair(t, Config{Oracle: oracle, Graph: g, Model: weights.IC,
			SchemeName: "WC", Seed: 42, MaxEvalSims: 100})
		for _, body := range edgeBodies {
			for _, path := range []string{"/v1/seeds", "/v1/spread"} {
				requireSameReply(t, got, want, path, []byte(body))
			}
		}
	})

	t.Run("degraded", func(t *testing.T) {
		lc := NewDegradedLifecycle(NewDegreeOracle(g))
		got, want := codecPair(t, Config{Lifecycle: lc, Graph: g, Model: weights.IC, SchemeName: "WC", Seed: 42})
		for _, req := range []struct{ path, body string }{
			{"/v1/seeds", `{"k":4}`},
			{"/v1/spread", `{"seeds":[7,2]}`},
			{"/v1/spread", `{"seeds":[7,2],"evalsims":50}`},
		} {
			r := requireSameReply(t, got, want, req.path, []byte(req.body))
			if !bytes.Contains(r.body, []byte(`"degraded":true`)) {
				t.Fatalf("%s: degraded answer not stamped: %s", req.path, r.body)
			}
		}
	})
}

// namedOracle answers like a stub under any backend name.
type namedOracle struct {
	stubOracle
	name string
}

func (o *namedOracle) Backend() string { return o.name }

// TestCodecEscapesBackendName serves under a backend name that needs
// every kind of escape encoding/json applies, through the codec and the
// reference.
func TestCodecEscapesBackendName(t *testing.T) {
	o := &namedOracle{name: "<&>\u2028\xffé\"\\\x01", stubOracle: stubOracle{
		spread: func(context.Context, []graph.NodeID) (float64, error) { return 2.5, nil },
		seeds: func(context.Context, int) ([]graph.NodeID, float64, error) {
			return []graph.NodeID{4, 1}, 3.25, nil
		},
	}}
	got, want := codecPair(t, Config{Oracle: o, Graph: testGraph(t), Model: weights.IC, SchemeName: "WC", Seed: 42})
	requireSameReply(t, got, want, "/v1/seeds", []byte(`{"k":2}`))
	requireSameReply(t, got, want, "/v1/spread", []byte(`{"seeds":[1,4]}`))
}

// TestNonFiniteSpreadIsEncodingFailure: JSON cannot carry NaN or ±Inf,
// so such an answer stays the 500 "encoding failure" json.Marshal made
// of it.
func TestNonFiniteSpreadIsEncodingFailure(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := &stubOracle{
			spread: func(context.Context, []graph.NodeID) (float64, error) { return v, nil },
			seeds: func(context.Context, int) ([]graph.NodeID, float64, error) {
				return []graph.NodeID{0}, v, nil
			},
		}
		got, want := codecPair(t, Config{Oracle: o, Graph: testGraph(t), Model: weights.IC, SchemeName: "WC", Seed: 42})
		for _, req := range []struct{ path, body string }{
			{"/v1/seeds", `{"k":1}`},
			{"/v1/spread", `{"seeds":[1]}`},
		} {
			r := requireSameReply(t, got, want, req.path, []byte(req.body))
			if r.status != http.StatusInternalServerError || string(r.body) != `{"error":"encoding failure"}` {
				t.Fatalf("%s with spread %v: %d %s", req.path, v, r.status, r.body)
			}
		}
	}
}

// TestEncodeMatchesJSONMarshal holds the hand-appended bodies to
// json.Marshal of the response structs, on the boundary cases and on
// random responses.
func TestEncodeMatchesJSONMarshal(t *testing.T) {
	seeds200 := make([]graph.NodeID, 200)
	for i := range seeds200 {
		seeds200[i] = graph.NodeID(i*7919) - 100
	}
	se := 0.125
	var seedsCases []seedsResponse
	var spreadCases []spreadResponse
	for _, backend := range []string{"rrset", "", "<b>", "&", "a\"b\\c\x1f", "<&>\u2028é"} {
		for _, seeds := range [][]graph.NodeID{nil, {}, {0}, seeds200} {
			for _, spread := range []float64{0, math.Copysign(0, -1), 5e-7, -5e-7, 1e-6, 1e21, 9.99e20, 1e300, 42, 1234.5678, 1.0 / 3} {
				for _, degraded := range []bool{false, true} {
					seedsCases = append(seedsCases, seedsResponse{Backend: backend, K: len(seeds), Seeds: seeds, Spread: spread, Degraded: degraded})
					for _, stderr := range []*float64{nil, &se} {
						for _, evalSims := range []int{0, 150} {
							spreadCases = append(spreadCases, spreadResponse{Backend: backend, Seeds: seeds, Spread: spread,
								StdErr: stderr, EvalSims: evalSims, Degraded: degraded})
						}
					}
				}
			}
		}
	}
	r := rng.New(7)
	randFloat := func() float64 {
		for {
			var f float64
			if r.Bool(0.5) {
				f = math.Float64frombits(r.Uint64())
			} else {
				f = r.Float64() * math.Pow(10, float64(r.Intn(60)-30))
			}
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for i := 0; i < 20000; i++ {
		var seeds []graph.NodeID
		if n := r.Intn(40) - 1; n >= 0 {
			seeds = make([]graph.NodeID, n)
			for j := range seeds {
				seeds[j] = graph.NodeID(r.Uint64())
			}
		}
		var stderr *float64
		if r.Bool(0.5) {
			v := randFloat()
			stderr = &v
		}
		seedsCases = append(seedsCases, seedsResponse{Backend: "rrset", K: int(int64(r.Uint64())), Seeds: seeds,
			Spread: randFloat(), Degraded: r.Bool(0.5)})
		spreadCases = append(spreadCases, spreadResponse{Backend: "snapshot", Seeds: seeds, Spread: randFloat(),
			StdErr: stderr, EvalSims: int(int64(r.Uint64())) >> r.Intn(64), Degraded: r.Bool(0.5)})
	}
	for _, c := range seedsCases {
		requireEncodes(t, &c, c.encode)
	}
	for _, c := range spreadCases {
		requireEncodes(t, &c, c.encode)
	}

	nan := math.NaN()
	for _, c := range []interface{ encode() ([]byte, error) }{
		&seedsResponse{Spread: nan},
		&spreadResponse{Spread: math.Inf(1)},
		&spreadResponse{Spread: 1, StdErr: &nan},
	} {
		if _, err := c.encode(); !errors.Is(err, errUnsupportedFloat) {
			t.Fatalf("%+v encoded without error (%v)", c, err)
		}
	}
}

func requireEncodes(t *testing.T, v any, encode func() ([]byte, error)) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encode()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n  encode      %s (%v)\n  json.Marshal %s", v, got, err, want)
	}
}

// TestRefusalBodiesMatchWriteError: the pre-encoded 503 and 429 answers
// are what writeError (plus the 429's Retry-After) would send.
func TestRefusalBodiesMatchWriteError(t *testing.T) {
	srv, err := New(Config{Oracle: &stubOracle{}, Graph: testGraph(t), Model: weights.IC, Seed: 42, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(status int, msg string, retryAfter bool) {
		t.Helper()
		want := httptest.NewRecorder()
		if retryAfter {
			want.Header().Set("Retry-After", "1")
		}
		writeError(want, status, msg)
		got := serveOnce(srv.Handler(), "/v1/seeds", []byte(`{"k":1}`))
		if got.status != want.Code || !reflect.DeepEqual(got.header, want.Header()) || !bytes.Equal(got.body, want.Body.Bytes()) {
			t.Fatalf("refusal %d %v %s, want %d %v %s",
				got.status, got.header, got.body, want.Code, want.Header(), want.Body.Bytes())
		}
	}
	for srv.gate.tryAcquire() {
	}
	check(http.StatusTooManyRequests, "server saturated: admission gate full", true)
	srv.Drain()
	check(http.StatusServiceUnavailable, "server is draining", false)
}

// decodeMatchesJSON decodes the stream src yields, once as json.Decoder
// with DisallowUnknownFields read it through io.LimitReader(limit), once
// through readBody and decodeRequest. Accept or reject, the decoded
// struct and the error message must agree. It returns the decoded
// struct and whether it was accepted.
func decodeMatchesJSON[T any](t *testing.T, src func() io.Reader, limit int, fast func([]byte, *T) bool) (T, bool) {
	t.Helper()
	var want T
	dec := json.NewDecoder(io.LimitReader(src(), int64(limit)))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)

	data, readErr := readBody(nil, src(), limit)
	var got T
	gotErr := decodeRequest(data, readErr, &got, fast)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%T %q: codec error %v, encoding/json error %v", got, data, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%T %q: codec error %q, encoding/json error %q", got, data, gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%T %q: codec decoded %#v, encoding/json %#v", got, data, got, want)
	}
	return got, wantErr == nil
}

// FuzzServeDecode is the differential check of the request decoder: on
// any body, read to any limit, both request types decode exactly as
// json.Decoder with DisallowUnknownFields decodes them, and an accepted
// spread body's seeds canonicalize without panicking into sorted, unique,
// in-range seeds, or fail. A limit of 0 reads up to maxBodyBytes.
func FuzzServeDecode(f *testing.F) {
	for _, body := range edgeBodies {
		f.Add([]byte(body), uint16(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		n := maxBodyBytes
		if limit > 0 {
			n = int(limit)
		}
		src := func() io.Reader { return bytes.NewReader(body) }
		decodeMatchesJSON(t, src, n, decodeSeedsFast)
		req, ok := decodeMatchesJSON(t, src, n, decodeSpreadFast)
		if ok {
			checkCanonical(t, req.Seeds, 100)
		}
	})
}

func checkCanonical(t *testing.T, seeds []graph.NodeID, n int32) {
	t.Helper()
	in := map[graph.NodeID]bool{}
	valid := len(seeds) > 0
	for _, v := range seeds {
		in[v] = true
		valid = valid && v >= 0 && v < n
	}
	out, err := canonicalSeeds(seeds, n) // sorts seeds in place
	if (err == nil) != valid {
		t.Fatalf("canonicalSeeds(%v) error %v", seeds, err)
	}
	if err != nil {
		return
	}
	for i, v := range out {
		if !in[v] || i > 0 && out[i-1] >= v {
			t.Fatalf("canonicalSeeds(%v) = %v: not the sorted distinct input", seeds, out)
		}
	}
	if len(out) != len(in) {
		t.Fatalf("canonicalSeeds(%v) = %v: dropped a seed", seeds, out)
	}
}

// TestDecodeReadError: a body whose read fails partway reaches
// json.Decoder with its bytes and then the error, as when the decoder
// read the body itself, so the 400 message is unchanged, and a value
// complete before the failure is still accepted.
func TestDecodeReadError(t *testing.T) {
	errReset := errors.New("connection reset by peer")
	for _, body := range []string{`{"k":12,"budget_ms":40}`, `{"seeds":[3,1,2],"evalsims":10}`, `{"k":3} `, `{"k":`} {
		for cut := 0; cut <= len(body); cut++ {
			src := func() io.Reader {
				return io.MultiReader(iotest.OneByteReader(bytes.NewReader([]byte(body[:cut]))), iotest.ErrReader(errReset))
			}
			decodeMatchesJSON(t, src, maxBodyBytes, decodeSeedsFast)
			decodeMatchesJSON(t, src, maxBodyBytes, decodeSpreadFast)
		}
	}
}
