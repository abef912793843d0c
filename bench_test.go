// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per artifact. Each bench exercises the exact code path of the
// corresponding experiment at a reduced, per-iteration-affordable scale;
// run `go run ./cmd/imexp all` for the full tables with CSV output.
package goinfmax_test

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	goinfmax "github.com/sigdata/goinfmax"
	"github.com/sigdata/goinfmax/internal/algo/rank"
	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/algo/snapshot"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/serve"
	"github.com/sigdata/goinfmax/internal/weights"
)

// benchGraph memoizes weighted graphs across benchmark targets.
var benchGraphs = map[string]*graph.Graph{}

func benchGraph(b *testing.B, dataset string, scale int64, scheme goinfmax.Scheme) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%s", dataset, scale, scheme.Name())
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g := scheme.Apply(goinfmax.Dataset(dataset, scale, 1)).(*graph.Graph)
	benchGraphs[key] = g
	return g
}

func benchSelect(b *testing.B, algName string, g *graph.Graph, model goinfmax.Model, k int, param float64) {
	b.Helper()
	alg, err := goinfmax.NewAlgorithm(algName)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(g, model, k, uint64(i)+1)
		ctx.ParamValue = param
		seeds, err := alg.Select(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(seeds) != k {
			b.Fatalf("%d seeds", len(seeds))
		}
	}
}

// BenchmarkFig1a_IMM measures the Figure 1a contrast: IMM's selection cost
// under IC(0.1) vs WC on the orkut stand-in.
func BenchmarkFig1a_IMM(b *testing.B) {
	b.Run("IC", func(b *testing.B) {
		g := benchGraph(b, "orkut", 512, goinfmax.ICConstant{P: 0.1})
		benchSelect(b, "IMM", g, goinfmax.IC, 10, 0.5)
	})
	b.Run("WC", func(b *testing.B) {
		g := benchGraph(b, "orkut", 512, goinfmax.WeightedCascade{})
		benchSelect(b, "IMM", g, goinfmax.IC, 10, 0.5)
	})
}

// BenchmarkFig1bc_IMMvsEaSyIM measures the Figure 1b-c pair on youtube.
func BenchmarkFig1bc_IMMvsEaSyIM(b *testing.B) {
	g := benchGraph(b, "youtube", 256, goinfmax.ICConstant{P: 0.1})
	b.Run("IMM", func(b *testing.B) { benchSelect(b, "IMM", g, goinfmax.IC, 10, 0.5) })
	b.Run("EaSyIM", func(b *testing.B) { benchSelect(b, "EaSyIM", g, goinfmax.IC, 10, 0) })
}

// BenchmarkTable2_ParamSearch measures the §5.1.1 parameter-selection
// procedure (one sweep of IMM's ε spectrum).
func BenchmarkTable2_ParamSearch(b *testing.B) {
	g := benchGraph(b, "hepph", 16, goinfmax.WeightedCascade{})
	alg, err := goinfmax.NewAlgorithm("IMM")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := goinfmax.ParamSearch{
			Ks:     []int{10},
			Config: goinfmax.RunConfig{K: 10, Model: goinfmax.IC, Seed: 1, EvalSims: 200},
		}
		choice := ps.Search(alg, g)
		if choice.Optimal <= 0 {
			b.Fatal("no optimal found")
		}
	}
}

// BenchmarkFig5_IMRankRounds measures one IMRank run per scoring-round
// setting, the Figure 5 sweep.
func BenchmarkFig5_IMRankRounds(b *testing.B) {
	g := benchGraph(b, "hepph", 16, goinfmax.ICConstant{P: 0.1})
	for i := 0; i < b.N; i++ {
		for rounds := 1.0; rounds <= 10; rounds++ {
			ctx := core.NewContext(g, goinfmax.IC, 10, 1)
			ctx.ParamValue = rounds
			if _, err := (rank.IMRank{L: 1}).Select(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6_Quality measures the quality-grid cell (selection +
// decoupled evaluation) for each technique family representative.
func BenchmarkFig6_Quality(b *testing.B) {
	wc := benchGraph(b, "nethept", 8, goinfmax.WeightedCascade{})
	lt := benchGraph(b, "nethept", 8, goinfmax.LTUniform{})
	cells := []struct {
		alg   string
		g     *graph.Graph
		model goinfmax.Model
		param float64
	}{
		{"CELF", wc, goinfmax.IC, 30},
		{"IMM", wc, goinfmax.IC, 0.3},
		{"PMC", wc, goinfmax.IC, 50},
		{"EaSyIM", wc, goinfmax.IC, 0},
		{"LDAG", lt, goinfmax.LT, 0},
		{"IMRank1", wc, goinfmax.IC, 5},
	}
	for _, c := range cells {
		b.Run(c.alg, func(b *testing.B) {
			alg, err := goinfmax.NewAlgorithm(c.alg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := goinfmax.RunConfig{K: 10, Model: c.model, Seed: uint64(i) + 1,
					ParamValue: c.param, EvalSims: 200}
				res := goinfmax.Run(alg, c.g, cfg)
				if res.Status != goinfmax.StatusOK {
					b.Fatalf("%v", res.Status)
				}
			}
		})
	}
}

// BenchmarkFig7_SelectionTime isolates pure seed-selection time per family
// (the Figure 7 measurement, no evaluation).
func BenchmarkFig7_SelectionTime(b *testing.B) {
	wc := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
	lt := benchGraph(b, "dblp", 64, goinfmax.LTUniform{})
	b.Run("IMM", func(b *testing.B) { benchSelect(b, "IMM", wc, goinfmax.IC, 20, 0.3) })
	b.Run("TIM+", func(b *testing.B) { benchSelect(b, "TIM+", wc, goinfmax.IC, 20, 0.3) })
	b.Run("PMC", func(b *testing.B) { benchSelect(b, "PMC", wc, goinfmax.IC, 20, 50) })
	b.Run("StaticGreedy", func(b *testing.B) { benchSelect(b, "StaticGreedy", wc, goinfmax.IC, 20, 50) })
	b.Run("IRIE", func(b *testing.B) { benchSelect(b, "IRIE", wc, goinfmax.IC, 20, 0) })
	b.Run("EaSyIM", func(b *testing.B) { benchSelect(b, "EaSyIM", wc, goinfmax.IC, 20, 0) })
	b.Run("LDAG", func(b *testing.B) { benchSelect(b, "LDAG", lt, goinfmax.LT, 20, 0) })
	b.Run("SIMPATH", func(b *testing.B) { benchSelect(b, "SIMPATH", lt, goinfmax.LT, 20, 0) })
}

// BenchmarkFig8_Memory reports the accounted data-structure bytes per
// technique as a custom metric (the Figure 8 measurement).
func BenchmarkFig8_Memory(b *testing.B) {
	wc := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
	for _, name := range []string{"IMM", "PMC", "StaticGreedy", "EaSyIM", "IRIE"} {
		b.Run(name, func(b *testing.B) {
			alg, err := goinfmax.NewAlgorithm(name)
			if err != nil {
				b.Fatal(err)
			}
			var bytesUsed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := core.NewContext(wc, goinfmax.IC, 10, uint64(i)+1)
				if _, err := alg.Select(ctx); err != nil {
					b.Fatal(err)
				}
				bytesUsed = ctx.MemUsed()
			}
			b.ReportMetric(float64(bytesUsed), "acct-bytes")
		})
	}
}

// BenchmarkTable3_Large measures the four scalable techniques on a larger
// (still laptop-affordable) stand-in, the Table 3 cell shape.
func BenchmarkTable3_Large(b *testing.B) {
	wc := benchGraph(b, "livejournal", 256, goinfmax.WeightedCascade{})
	for _, name := range []string{"PMC", "IMM", "TIM+", "EaSyIM"} {
		b.Run(name, func(b *testing.B) {
			param := 0.0
			switch name {
			case "IMM", "TIM+":
				param = 0.3
			case "PMC":
				param = 50
			}
			benchSelect(b, name, wc, goinfmax.IC, 20, param)
		})
	}
}

// BenchmarkFig9_CELFvsCELFpp measures the M1 pair at identical simulation
// counts (Figures 9a-b).
func BenchmarkFig9_CELFvsCELFpp(b *testing.B) {
	wc := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	b.Run("CELF", func(b *testing.B) { benchSelect(b, "CELF", wc, goinfmax.IC, 10, 50) })
	b.Run("CELF++", func(b *testing.B) { benchSelect(b, "CELF++", wc, goinfmax.IC, 10, 50) })
}

// BenchmarkFig9ce_CELFQuality measures CELF at the simulation ladder of
// Figures 9c-e.
func BenchmarkFig9ce_CELFQuality(b *testing.B) {
	wc := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	for _, r := range []float64{10, 50, 200} {
		b.Run(nameOfSims(r), func(b *testing.B) {
			benchSelect(b, "CELF", wc, goinfmax.IC, 10, r)
		})
	}
}

func nameOfSims(r float64) string {
	switch r {
	case 10:
		return "r=10"
	case 50:
		return "r=50"
	default:
		return "r=200"
	}
}

// BenchmarkFig10_Extrapolation measures the M4 cell: an IMM run plus the
// MC evaluation it under-reports.
func BenchmarkFig10_Extrapolation(b *testing.B) {
	wc := benchGraph(b, "nethept", 16, goinfmax.ICConstant{P: 0.1})
	alg, err := goinfmax.NewAlgorithm("IMM")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := goinfmax.RunConfig{K: 10, Model: goinfmax.IC, Seed: uint64(i) + 1,
			ParamValue: 0.8, EvalSims: 200}
		res := goinfmax.Run(alg, wc, cfg)
		if res.EstimatedSpread < 0 {
			b.Fatal("no extrapolated spread")
		}
	}
}

// BenchmarkTable4_LDAGvsSIMPATH measures the M5 pair under LT-uniform.
func BenchmarkTable4_LDAGvsSIMPATH(b *testing.B) {
	lt := benchGraph(b, "nethept", 8, goinfmax.LTUniform{})
	b.Run("LDAG", func(b *testing.B) { benchSelect(b, "LDAG", lt, goinfmax.LT, 20, 0) })
	b.Run("SIMPATH", func(b *testing.B) { benchSelect(b, "SIMPATH", lt, goinfmax.LT, 20, 0) })
}

// BenchmarkFig10f_IMRankConvergence measures both convergence criteria
// (the M7 contrast).
func BenchmarkFig10f_IMRankConvergence(b *testing.B) {
	wc := benchGraph(b, "hepph", 16, goinfmax.WeightedCascade{})
	for _, mode := range []rank.ConvergenceMode{rank.TopKSetStable, rank.FixedRounds} {
		name := "corrected"
		if mode == rank.TopKSetStable {
			name = "incorrect"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := core.NewContext(wc, goinfmax.IC, 50, uint64(i)+1)
				ctx.ParamValue = 10
				if _, err := (rank.IMRank{L: 1, Mode: mode}).Select(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12_MCSpreadEvaluation measures the uniform spread evaluator
// at the Figure 12 simulation counts.
func BenchmarkFig12_MCSpreadEvaluation(b *testing.B) {
	wc := benchGraph(b, "nethept", 8, goinfmax.WeightedCascade{})
	seeds := []goinfmax.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, sims := range []int{100, 1000} {
		name := "r=100"
		if sims == 1000 {
			name = "r=1000"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est := goinfmax.EstimateSpread(wc, goinfmax.IC, seeds, sims, uint64(i))
				if est.Mean <= 0 {
					b.Fatal("zero spread")
				}
			}
		})
	}
}

// BenchmarkFig11_Skyline measures the classification + decision tree.
func BenchmarkFig11_Skyline(b *testing.B) {
	// Synthesize a plausible results grid once.
	var results []core.Result
	for _, algName := range []string{"IMM", "TIM+", "PMC", "EaSyIM", "CELF"} {
		for k := 1; k <= 50; k += 7 {
			r := core.Result{Algorithm: algName, Dataset: "d", K: k, Status: core.OK,
				SelectionTime: time.Duration(k) * time.Millisecond, PeakMemBytes: int64(k) * 1024}
			r.Spread.Mean = float64(100 + k)
			results = append(results, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement := core.ClassifyResults(results, 0.05, 10, 10)
		if len(placement) == 0 {
			b.Fatal("empty placement")
		}
		if rec, _ := core.Recommend(core.Scenario{Model: weights.LT}); rec == "" {
			b.Fatal("no recommendation")
		}
	}
}

// BenchmarkTable5_Support measures registry support-matrix generation.
func BenchmarkTable5_Support(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sm := core.Default().SupportMatrix()
		if len(sm) < 15 {
			b.Fatalf("matrix has %d techniques", len(sm))
		}
	}
}

// BenchmarkExt_Exclusions measures the techniques behind the paper's §4
// exclusion claims (the `exclusions` extension experiment).
func BenchmarkExt_Exclusions(b *testing.B) {
	wc := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	b.Run("PMIA", func(b *testing.B) { benchSelect(b, "PMIA", wc, goinfmax.IC, 10, 0) })
	b.Run("DegreeDiscount", func(b *testing.B) { benchSelect(b, "DegreeDiscount", wc, goinfmax.IC, 10, 0) })
	b.Run("IRIE", func(b *testing.B) { benchSelect(b, "IRIE", wc, goinfmax.IC, 10, 0) })
	b.Run("SKIM", func(b *testing.B) { benchSelect(b, "SKIM", wc, goinfmax.IC, 10, 16) })
	b.Run("RIS", func(b *testing.B) { benchSelect(b, "RIS", wc, goinfmax.IC, 10, 0.5) })
}

// BenchmarkDiffusion_SingleCascade measures the core IC simulation kernel,
// the unit of everything the MC family does.
func BenchmarkDiffusion_SingleCascade(b *testing.B) {
	wc := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
	sim := diffusion.NewSimulator(wc, weights.IC)
	seeds := []goinfmax.NodeID{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := sim.EstimateSpread(seeds, 10, uint64(i))
		if est.Mean <= 0 {
			b.Fatal("zero")
		}
	}
}

// benchOracles memoizes serving oracles across benchmark targets: the
// whole point of the serving layer is that the build cost is paid once.
var benchOracles = map[string]serve.Oracle{}

func benchOracle(b *testing.B, backend string) (serve.Oracle, *graph.Graph) {
	b.Helper()
	// The acceptance target: a Barabási–Albert stand-in around 50k nodes
	// (youtube at scale 22 ≈ 51k), WC weights, the serving default.
	g := benchGraph(b, "youtube", 22, goinfmax.WeightedCascade{})
	o, ok := benchOracles[backend]
	if !ok {
		var err error
		o, err = serve.BuildOracle(context.Background(), backend, g, weights.IC, 0, 1, serve.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		// Collect the build's garbage before any timed query runs.
		runtime.GC()
		benchOracles[backend] = o
	}
	return o, g
}

// BenchmarkOracleSpread measures a warm /v1/spread point query: one
// σ(S) estimate from the precomputed index, |S| = 10.
func BenchmarkOracleSpread(b *testing.B) {
	for _, backend := range serve.Backends() {
		b.Run(backend, func(b *testing.B) {
			o, g := benchOracle(b, backend)
			seeds := make([]goinfmax.NodeID, 10)
			for i := range seeds {
				seeds[i] = goinfmax.NodeID(i * int(g.N()) / 10)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp, err := o.Spread(ctx, seeds)
				if err != nil || sp <= 0 {
					b.Fatalf("spread %v err %v", sp, err)
				}
			}
		})
	}
}

// BenchmarkOracleSeeds measures a warm /v1/seeds query: the top-10 prefix
// of a greedy order the oracle has already computed (one untimed query
// extends it first), i.e. a slice copy and a cumulative-coverage read.
func BenchmarkOracleSeeds(b *testing.B) {
	for _, backend := range serve.Backends() {
		b.Run(backend, func(b *testing.B) {
			o, _ := benchOracle(b, backend)
			ctx := context.Background()
			if _, _, err := o.Seeds(ctx, 10); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seeds, sp, err := o.Seeds(ctx, 10)
				if err != nil || len(seeds) != 10 || sp <= 0 {
					b.Fatalf("seeds %v spread %v err %v", seeds, sp, err)
				}
			}
		})
	}
}

// BenchmarkOracleSeedsCold measures the one-time greedy an oracle pays
// per generation: the first Seeds(200) on an rrset index freshly
// rehydrated from the serving-size inversion (θ = 4n on the youtube
// stand-in), as after a snapshot load. The rehydration is untimed.
func BenchmarkOracleSeedsCold(b *testing.B) {
	s := benchPersistSnapshot(b)
	numSets, off, data := s.RRIndex.Inversion()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := rrset.NewIndexFromInversion(s.Header.Nodes, numSets, off, data)
		if err != nil {
			b.Fatal(err)
		}
		// Collect the previous iteration's index now, so the timed greedy
		// does not pay for it.
		runtime.GC()
		b.StartTimer()
		seeds, sp, err := ix.SelectSeeds(200, nil)
		if err != nil || len(seeds) != 200 || sp <= 0 {
			b.Fatalf("seeds %d spread %v err %v", len(seeds), sp, err)
		}
	}
}

// BenchmarkServeHandler measures one request through imserve's whole
// in-process handler with the response cache off: admission, body decode,
// the warm oracle query, and the response encode and write. The oracle is
// a default-size rrset index on the nethept stand-in at scale 16; seeds
// asks for k = 200, the largest allowed, and spread for a 10-seed set. The
// request and response writer are reused, so the allocations counted are
// the handler's own.
func BenchmarkServeHandler(b *testing.B) {
	g := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	o, err := serve.BuildOracle(context.Background(), "rrset", g, weights.IC, 0, 1, serve.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Oracle: o, Graph: g, Model: weights.IC, SchemeName: "WC", Seed: 1, CacheEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	spread := []byte(`{"seeds":[`)
	for i := int32(0); i < 10; i++ {
		if i > 0 {
			spread = append(spread, ',')
		}
		spread = fmt.Appendf(spread, "%d", i*g.N()/10)
	}
	spread = append(spread, "]}"...)
	runtime.GC()
	for _, c := range []struct {
		name, path string
		body       []byte
	}{
		{"seeds", "/v1/seeds", []byte(`{"k":200}`)},
		{"spread", "/v1/spread", spread},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := srv.Handler()
			body := &benchBody{}
			req := httptest.NewRequest(http.MethodPost, c.path, nil)
			req.Header.Set("Content-Type", "application/json")
			req.Body, req.ContentLength = body, int64(len(c.body))
			w := &benchWriter{header: http.Header{}}
			serveOne := func() {
				body.Reset(c.body)
				clear(w.header)
				w.status = 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("%s: status %d", c.path, w.status)
				}
			}
			// One untimed request extends the oracle's greedy order to k.
			serveOne()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOne()
			}
		})
	}
}

// benchBody is a reusable request body.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a reusable http.ResponseWriter that keeps only the status.
type benchWriter struct {
	header http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.header }
func (w *benchWriter) WriteHeader(status int)      { w.status = status }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkPoolBuild measures the snapshot pool's construction, the bulk of
// an offline PMC cell: sampling 200 live-edge snapshots of the nethept
// stand-in at scale 16 and condensing each into its SCC DAG.
func BenchmarkPoolBuild(b *testing.B) {
	g := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.BuildPool(core.NewContext(g, weights.IC, 200, 1), 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolSeedsCold measures the snapshot pool's one-time greedy on
// the shared lazy-greedy engine, the loop offline PMC also runs: the first
// SelectSeeds(200) on a 200-snapshot pool of the nethept stand-in at scale
// 16, freshly rehydrated from its DAGs. The rehydration is untimed.
func BenchmarkPoolSeedsCold(b *testing.B) {
	g := benchGraph(b, "nethept", 16, goinfmax.WeightedCascade{})
	built, err := snapshot.BuildPool(core.NewContext(g, weights.IC, 200, 1), 200)
	if err != nil {
		b.Fatal(err)
	}
	dags := built.DAGs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := snapshot.NewPoolFromDAGs(g.N(), dags)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		seeds, sp, err := p.SelectSeeds(200, nil)
		if err != nil || len(seeds) != 200 || sp <= 0 {
			b.Fatalf("seeds %d spread %v err %v", len(seeds), sp, err)
		}
	}
}

// BenchmarkRRSampleBatch measures bulk RR-set production into the flat
// arena, serial vs 8 sampling workers at a fixed seed (the results are
// byte-identical either way). On a single-core machine the 8-worker run
// can only measure orchestration overhead; the speedup is linear in real
// cores because workers share no state until the final ordered merge.
func BenchmarkRRSampleBatch(b *testing.B) {
	g := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
	const count = 5000
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := diffusion.NewRRSampler(g, weights.IC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store := graphalgo.NewSetStore()
				added, err := s.SampleBatch(store, count, uint64(i)+1, workers, nil, nil)
				if err != nil || added != count {
					b.Fatalf("added %d err %v", added, err)
				}
			}
			b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "sets/s")
		})
	}
}

// BenchmarkRRSelectIMM times one imm-sweep cell's selection end to end:
// IMM at k = 200 and ε = 0.1 with serial sampling on the dblp stand-in at
// scale 32 under WC. It covers every phase's RR sampling into the arena,
// the phases' inversions and their greedy covers. The seed is fixed, so
// every iteration does the same work.
func BenchmarkRRSelectIMM(b *testing.B) {
	g := benchGraph(b, "dblp", 32, goinfmax.WeightedCascade{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := core.NewContext(g, weights.IC, 200, 42)
		ctx.ParamValue = 0.1
		ctx.Workers = 1
		seeds, err := rrset.IMM{}.Select(ctx)
		if err != nil || len(seeds) != 200 {
			b.Fatalf("seeds %d err %v", len(seeds), err)
		}
	}
}

// BenchmarkGreedyMaxCoverFlat contrasts the flat-arena coverage problem
// (counting-sort inversion over the SetStore) with the slice-of-slices
// layout it replaced, on identical RR sets. The baseline below replicates
// the old append-grown inversion and lazy heap greedy verbatim.
func BenchmarkGreedyMaxCoverFlat(b *testing.B) {
	g := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
	s := diffusion.NewRRSampler(g, weights.IC)
	store := graphalgo.NewSetStore()
	const numSets, k = 20000, 20
	if _, err := s.SampleBatch(store, numSets, 1, 1, nil, nil); err != nil {
		b.Fatal(err)
	}
	sets := make([][]int32, store.Len())
	for i := range sets {
		sets[i] = store.Set(i)
	}
	n := int32(g.N())
	// Both layouts must agree on the answer. Checked once, untimed, before
	// the sub-benchmarks, so it runs whichever of them -bench selects.
	cp := graphalgo.NewCoverageProblem(n, store)
	flat, err := cp.GreedyMaxCoverPoll(k, nil)
	if err != nil {
		b.Fatal(err)
	}
	sliceSeeds := greedySliceBaseline(n, sets, k)
	if len(flat.Seeds) != k || len(sliceSeeds) != k {
		b.Fatalf("flat seeds %v, slice seeds %v, want %d each", flat.Seeds, sliceSeeds, k)
	}
	for i := range flat.Seeds {
		if flat.Seeds[i] != sliceSeeds[i] {
			b.Fatalf("flat seeds %v != slice seeds %v", flat.Seeds, sliceSeeds)
		}
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := graphalgo.NewCoverageProblem(n, store)
			res, err := cp.GreedyMaxCoverPoll(k, nil)
			if err != nil || len(res.Seeds) != k {
				b.Fatalf("seeds %v err %v", res.Seeds, err)
			}
		}
	})
	b.Run("slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if seeds := greedySliceBaseline(n, sets, k); len(seeds) != k {
				b.Fatalf("seeds %v", seeds)
			}
		}
	})
}

// greedySliceBaseline is the pre-arena implementation kept for the
// benchmark above: append-grown per-node membership slices and the same
// lazy (CELF-style) heap greedy.
func greedySliceBaseline(n int32, sets [][]int32, k int) []int32 {
	nodeSets := make([][]int32, n)
	degree := make([]int64, n)
	for si, set := range sets {
		for _, v := range set {
			ns := nodeSets[v]
			if len(ns) > 0 && ns[len(ns)-1] == int32(si) {
				continue
			}
			nodeSets[v] = append(nodeSets[v], int32(si))
			degree[v]++
		}
	}
	covered := make([]bool, len(sets))
	h := make(baselineHeap, 0, n)
	for v, d := range degree {
		if d > 0 {
			h = append(h, baselineItem{node: int32(v), gain: d, round: 0})
		}
	}
	heap.Init(&h)
	var seeds []int32
	for round := 0; round < k && len(h) > 0; round++ {
		var pick baselineItem
		for {
			top := h[0]
			if int(top.round) == round {
				pick = top
				heap.Pop(&h)
				break
			}
			gain := int64(0)
			for _, si := range nodeSets[top.node] {
				if !covered[si] {
					gain++
				}
			}
			h[0].gain = gain
			h[0].round = int32(round)
			heap.Fix(&h, 0)
		}
		for _, si := range nodeSets[pick.node] {
			covered[si] = true
		}
		seeds = append(seeds, pick.node)
	}
	return seeds
}

type baselineItem struct {
	node  int32
	gain  int64
	round int32
}

type baselineHeap []baselineItem

func (h baselineHeap) Len() int            { return len(h) }
func (h baselineHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h baselineHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *baselineHeap) Push(x interface{}) { *h = append(*h, x.(baselineItem)) }
func (h *baselineHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// BenchmarkSpreadEvalBatch measures the evaluation cost of a full 9-point
// k-sweep (the paper's k ∈ {1, 25, …, 200} grid) on common live-edge worlds
// (diffusion.WorldEvaluator), for the two shapes a sweep's seed sets take.
// "batch" is a prefix chain, as greedy/CELF/PMC selections produce; "imm"
// is the nine sets of one seed-42 IMM sweep, which draws a different θ per
// k, so its sets overlap without nesting. "naive" re-simulates every chain
// set from scratch with the per-cell estimator the batch engine replaces.
// Same r per point, serial in every case, so ns/op compares total sweep
// evaluation wall-clock directly (BENCH_spread.json records the measured
// ratios).
func BenchmarkSpreadEvalBatch(b *testing.B) {
	g := benchGraph(b, "nethept", 8, goinfmax.WeightedCascade{})
	const r = 1000
	ks := core.PaperKs()
	order := make([]goinfmax.NodeID, ks[len(ks)-1])
	for i := range order {
		order[i] = goinfmax.NodeID(i)
	}
	chain := make([][]goinfmax.NodeID, len(ks))
	for i, k := range ks {
		chain[i] = order[:k]
	}
	evalBatch := func(b *testing.B, sets [][]goinfmax.NodeID) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := diffusion.NewWorldEvaluator(g, weights.IC, r, uint64(i)+1)
			res, err := ev.EvalBatch(sets, diffusion.BatchOptions{Workers: 1})
			if err != nil || len(res) != len(sets) || res[0].Estimate.Mean <= 0 {
				b.Fatalf("res %v err %v", res, err)
			}
		}
	}
	b.Run("batch", func(b *testing.B) { evalBatch(b, chain) })
	b.Run("imm", func(b *testing.B) { evalBatch(b, immSweepSets(b, g)) })
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			for _, s := range chain {
				est, err := diffusion.EstimateSpreadParallelCtx(ctx, g, weights.IC, s, r, uint64(i)+1, 1)
				if err != nil || est.Mean <= 0 {
					b.Fatalf("est %v err %v", est, err)
				}
			}
		}
	})
}

// immSweep memoizes immSweepSets: a sub-benchmark body runs once per b.N
// trial and per -cpu value, and the selection costs close to a second.
var immSweep [][]goinfmax.NodeID

// immSweepSets returns the seed sets of one IMM k-sweep over the paper's
// grid on g (seed 42, default ε, serial sampling, no evaluation).
func immSweepSets(b *testing.B, g *graph.Graph) [][]goinfmax.NodeID {
	b.Helper()
	if immSweep != nil {
		return immSweep
	}
	alg, err := goinfmax.NewAlgorithm("IMM")
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range core.RunSweep(alg, g, core.RunConfig{Model: weights.IC, Seed: 42, Workers: 1}, core.PaperKs()) {
		if res.Status != core.OK {
			b.Fatalf("IMM k=%d: %v %v", res.K, res.Status, res.Err)
		}
		immSweep = append(immSweep, res.Seeds)
	}
	return immSweep
}

// Work-stealing executor benchmarks
//
// The skew fixture below is the regime the sched executor exists for: a
// directed chain at IC p=1 makes RR-set cost a steep function of the
// root, so a batch is a few giant samples among many tiny ones and
// static contiguous chunks park every worker behind whichever one drew
// the giants. Worker counts follow GOMAXPROCS so scripts/bench.sh's
// `-cpu 1,4,8` sweep drives the fleet size; on a single-core container
// the multi-cpu rows can only measure orchestration overhead (the
// modeled multicore rows live in BENCH_multicore.json).

// benchSkewGraph memoizes the steal-forcing fixture: a chain at arc
// probability 1 over the first n/8 nodes, everything else isolated.
func benchSkewGraph(b *testing.B) *graph.Graph {
	b.Helper()
	if g, ok := benchGraphs["skew"]; ok {
		return g
	}
	const n, chain = 32768, 4096
	bld := graph.NewBuilder(n, true)
	for v := int32(1); v < chain; v++ {
		if err := bld.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 1); err != nil {
			b.Fatal(err)
		}
	}
	g := goinfmax.ICConstant{P: 1}.Apply(bld.BuildSimple()).(*graph.Graph)
	benchGraphs["skew"] = g
	return g
}

// splitmixAt mirrors the batch sampler's per-index seed derivation (the
// i-th splitmix64 output of base) so the static baseline below draws
// the identical sample population.
func splitmixAt(base uint64, i int64) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// staticChunkBaseline replicates the fan-out the stealing executor
// replaced: one contiguous ceil(count/workers) chunk per worker,
// private shards, worker-order merge — no rebalancing once a worker
// exhausts its chunk.
func staticChunkBaseline(g *graph.Graph, count int64, baseSeed uint64, workers int) *graphalgo.SetStore {
	if workers < 1 {
		workers = 1
	}
	chunk := (count + int64(workers) - 1) / int64(workers)
	shards := make([]*graphalgo.SetStore, workers)
	panics := make(chan interface{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := int64(w)*chunk, int64(w)*chunk+chunk
		if hi > count {
			hi = count
		}
		if lo >= hi {
			break
		}
		shard := graphalgo.NewSetStore()
		shards[w] = shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			s := diffusion.NewRRSampler(g, weights.IC)
			buf := make([]goinfmax.NodeID, 0, 256)
			for i := lo; i < hi; i++ {
				r := rng.New(splitmixAt(baseSeed, i))
				root := goinfmax.NodeID(r.Int31n(g.N()))
				buf = s.Sample(root, r, buf[:0])
				shard.Append(buf)
			}
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	out := graphalgo.NewSetStore()
	for _, sh := range shards {
		if sh != nil {
			out.AppendStore(sh)
		}
	}
	return out
}

// BenchmarkRRSampleSkew contrasts the stealing executor with the static
// contiguous-chunk fan-out it replaced, on the skew fixture, at
// GOMAXPROCS workers. Both variants draw the identical sample
// population (same per-index splitmix64 streams, asserted below), so
// ns/op compares scheduling alone.
func BenchmarkRRSampleSkew(b *testing.B) {
	g := benchSkewGraph(b)
	const count = 2048
	workers := runtime.GOMAXPROCS(0)
	{
		s := diffusion.NewRRSampler(g, weights.IC)
		want := graphalgo.NewSetStore()
		if _, err := s.SampleBatch(want, count, 1, workers, nil, nil); err != nil {
			b.Fatal(err)
		}
		if !staticChunkBaseline(g, count, 1, workers).Equal(want) {
			b.Fatal("static baseline draws a different sample population")
		}
	}
	b.Run("steal", func(b *testing.B) {
		s := diffusion.NewRRSampler(g, weights.IC)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store := graphalgo.NewSetStore()
			added, err := s.SampleBatch(store, count, uint64(i)+1, workers, nil, nil)
			if err != nil || added != count {
				b.Fatalf("added %d err %v", added, err)
			}
		}
	})
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if store := staticChunkBaseline(g, count, uint64(i)+1, workers); store.Len() != count {
				b.Fatalf("sampled %d sets", store.Len())
			}
		}
	})
}

// BenchmarkSpreadEvalSkew measures batched common-world evaluation with
// the stealing fan-out at GOMAXPROCS workers on a near-percolation
// random graph, where per-world cascade costs vary by orders of
// magnitude — the world-index analogue of the RR-set skew above.
func BenchmarkSpreadEvalSkew(b *testing.B) {
	key := "evalskew"
	g, ok := benchGraphs[key]
	if !ok {
		src := rng.New(7)
		const n = 4096
		bld := graph.NewBuilder(n, true)
		for i := 0; i < 6*n; i++ {
			u, v := graph.NodeID(src.Int31n(n)), graph.NodeID(src.Int31n(n))
			if u != v {
				_ = bld.AddEdge(u, v, 1)
			}
		}
		g = goinfmax.ICConstant{P: 0.12}.Apply(bld.BuildSimple()).(*graph.Graph)
		benchGraphs[key] = g
	}
	sets := make([][]goinfmax.NodeID, 6)
	for i := range sets {
		for v := 0; v <= i*3; v++ {
			sets[i] = append(sets[i], goinfmax.NodeID(v*17))
		}
	}
	const r = 512
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := diffusion.NewWorldEvaluator(g, weights.IC, r, uint64(i)+1)
		res, err := ev.EvalBatch(sets, diffusion.BatchOptions{Workers: workers})
		if err != nil || len(res) != len(sets) {
			b.Fatalf("res %v err %v", res, err)
		}
	}
}

// BenchmarkDiffusion_RRSet measures RR-set sampling, the unit of the
// TIM+/IMM family, under both weight regimes of Figure 1a.
func BenchmarkDiffusion_RRSet(b *testing.B) {
	b.Run("WC", func(b *testing.B) {
		g := benchGraph(b, "dblp", 64, goinfmax.WeightedCascade{})
		s := diffusion.NewRRSampler(g, weights.IC)
		r := core.NewContext(g, weights.IC, 1, 1).RNG
		var buf []goinfmax.NodeID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.SampleUniformRoot(r, buf[:0])
		}
	})
	b.Run("IC01", func(b *testing.B) {
		g := benchGraph(b, "dblp", 64, goinfmax.ICConstant{P: 0.1})
		s := diffusion.NewRRSampler(g, weights.IC)
		r := core.NewContext(g, weights.IC, 1, 1).RNG
		var buf []goinfmax.NodeID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.SampleUniformRoot(r, buf[:0])
		}
	})
}

// benchPersistSnapshot memoizes the built RR-set index wrapped for
// persistence, at the serving acceptance scale (youtube ≈ 51k nodes, WC
// weights, default θ).
var benchPersistSnap *persist.Snapshot

func benchPersistSnapshot(b *testing.B) *persist.Snapshot {
	b.Helper()
	if benchPersistSnap != nil {
		return benchPersistSnap
	}
	g := benchGraph(b, "youtube", 22, goinfmax.WeightedCascade{})
	theta := 4 * int64(g.N()) // the serving default: θ = 4n at this scale
	ix, err := rrset.BuildIndex(core.NewContext(g, weights.IC, 1, 1), theta)
	if err != nil {
		b.Fatal(err)
	}
	benchPersistSnap = &persist.Snapshot{
		Header: persist.Header{
			Backend:     "rrset",
			Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
			BuildSeed:   1,
			IndexSize:   theta,
			Nodes:       g.N(),
		},
		RRIndex: ix,
	}
	return benchPersistSnap
}

// BenchmarkPersistSave measures writing the oracle snapshot with the full
// atomic protocol (encode + CRC + fsync + rename + dir fsync).
func BenchmarkPersistSave(b *testing.B) {
	s := benchPersistSnapshot(b)
	path := b.TempDir() + "/oracle.snap"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := persist.Save(path, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistColdStart measures booting a replica from the snapshot:
// read, verify the envelope, then decode and validate the inversion — the
// path that replaces the sampling build on a warm restart.
func BenchmarkPersistColdStart(b *testing.B) {
	s := benchPersistSnapshot(b)
	path := b.TempDir() + "/oracle.snap"
	if err := persist.Save(path, s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := persist.Load(path, s.Header)
		if err != nil {
			b.Fatal(err)
		}
		if got.RRIndex.NumSets() != s.RRIndex.NumSets() {
			b.Fatal("short load")
		}
	}
}

// BenchmarkPersistRebuild is the cold-start baseline: the same oracle
// built from scratch by sampling. The ColdStart/Rebuild ratio is the
// whole value proposition of -oraclefile.
func BenchmarkPersistRebuild(b *testing.B) {
	s := benchPersistSnapshot(b) // ensure the same graph + θ
	g := benchGraph(b, "youtube", 22, goinfmax.WeightedCascade{})
	theta := int64(s.RRIndex.NumSets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := rrset.BuildIndex(core.NewContext(g, weights.IC, 1, 1), theta)
		if err != nil {
			b.Fatal(err)
		}
		if ix.NumSets() != int(theta) {
			b.Fatal("short build")
		}
	}
}
