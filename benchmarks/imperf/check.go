package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"strconv"

	goinfmax "github.com/sigdata/goinfmax"
)

// goldenSeed is the seed the committed goldens were recorded at.
const goldenSeed = 42

// goldenTolerance is how far below its golden a cell's spread may fall.
const goldenTolerance = 0.99

//go:embed testdata/golden.json
var embeddedGoldens []byte

// goldenCell is one k of the paper grid at the golden seed.
type goldenCell struct {
	K      int     `json:"k"`
	Seeds  string  `json:"seeds_fnv"`
	Spread float64 `json:"spread"`
}

// goldenEntry is one workload's golden outputs. StreamDigest pins the
// serving workloads' request stream.
type goldenEntry struct {
	StreamDigest string       `json:"stream_digest,omitempty"`
	Cells        []goldenCell `json:"cells"`
}

// goldenFile maps a workload (suffixed "/smoke" for smoke sizes) to its
// golden outputs.
type goldenFile map[string]goldenEntry

func loadGoldens() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(embeddedGoldens, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return g, nil
}

// saveGoldens replaces key's entry in the golden file at path, keeping
// the other entries.
func saveGoldens(path, key string, e goldenEntry) error {
	g := goldenFile{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("goldens: %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("goldens: %w", err)
	}
	g[key] = e
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// seedsDigest fingerprints a seed list in selection order.
func seedsDigest(seeds []goinfmax.NodeID) string {
	h := fnv.New64a()
	var buf []byte
	for _, s := range seeds {
		buf = strconv.AppendInt(buf[:0], int64(s), 10)
		buf = append(buf, ',')
		_, _ = h.Write(buf)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// answer is one k of the grid as the program answered it.
type answer struct {
	k      int
	seeds  []goinfmax.NodeID
	spread float64
}

// checkSeeds reports why seeds is not a valid answer for k on n nodes.
func checkSeeds(seeds []goinfmax.NodeID, k int, n int32) error {
	if len(seeds) != k {
		return fmt.Errorf("%d seeds, want %d", len(seeds), k)
	}
	seen := make(map[goinfmax.NodeID]bool, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= n {
			return fmt.Errorf("seed %d out of range [0,%d)", s, n)
		}
		if seen[s] {
			return fmt.Errorf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	return nil
}

// checkAnswers checks one grid of answers made at seed: every answer
// valid, spread never falling as k grows, and at the golden seed each
// spread at least goldenTolerance of its golden. Each failed answer
// counts once. In -write-golden mode the answers become the golden.
func (rc *runCtx) checkAnswers(seed uint64, n int32, answers []answer) {
	r := rc.r
	bad := make([]bool, len(answers))
	for i, a := range answers {
		if err := checkSeeds(a.seeds, a.k, n); err != nil {
			bad[i] = true
			r.fail("k=%d: %v", a.k, err)
		} else if i > 0 && a.spread < answers[i-1].spread {
			bad[i] = true
			r.fail("k=%d: spread %.1f below k=%d's %.1f", a.k, a.spread, answers[i-1].k, answers[i-1].spread)
		}
	}
	if seed != goldenSeed {
		return
	}
	key := rc.goldenKey()
	if rc.o.writeGolden != "" {
		e := rc.goldens[key]
		e.Cells = e.Cells[:0]
		for _, a := range answers {
			e.Cells = append(e.Cells, goldenCell{K: a.k, Seeds: seedsDigest(a.seeds), Spread: a.spread})
		}
		rc.goldens[key] = e
		return
	}
	gold, ok := rc.goldens[key]
	if !ok || len(gold.Cells) != len(answers) {
		r.fail("no golden for %s with %d cells", key, len(answers))
		return
	}
	mismatched := 0
	for i, a := range answers {
		g := gold.Cells[i]
		if g.K != a.k {
			r.fail("golden cell %d has k=%d, run has k=%d", i, g.K, a.k)
			continue
		}
		if g.Seeds != seedsDigest(a.seeds) {
			mismatched++
		}
		if a.spread < goldenTolerance*g.Spread && !bad[i] {
			r.fail("k=%d: spread %.1f below %.0f%% of golden %.1f", a.k, a.spread, 100*goldenTolerance, g.Spread)
		}
	}
	// Seed sets may legitimately change (an RNG re-pin); only the
	// spread is held to the golden.
	r.add("golden.seed_sets_changed", float64(mismatched), "count")
}

// checkStreamDigest pins the request stream at the golden seed, so a
// changed loadgen stream fails loudly instead of silently moving the
// serving numbers.
func (rc *runCtx) checkStreamDigest(seed uint64, digest uint64) {
	if seed != goldenSeed {
		return
	}
	key := rc.goldenKey()
	got := strconv.FormatUint(digest, 16)
	if rc.o.writeGolden != "" {
		e := rc.goldens[key]
		e.StreamDigest = got
		rc.goldens[key] = e
		return
	}
	if want := rc.goldens[key].StreamDigest; got != want {
		rc.r.fail("request stream digest %s, golden %s", got, want)
	}
}
