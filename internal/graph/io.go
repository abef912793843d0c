package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/sigdata/goinfmax/internal/durable"
)

// Edge-list text format
//
// The loaders accept the SNAP-style whitespace-separated edge list used by
// the paper's datasets:
//
//	# comment lines start with '#'
//	<from> <to> [weight]
//
// An optional header line "n m" (two integers, no weight column ambiguity:
// it must be the first non-comment line and directed below) can pre-size the
// graph; otherwise node count is max ID + 1.

// LoadEdgeList reads an edge list from r and builds a graph. If directed is
// false each edge contributes arcs both ways. Missing weights default to 1.
func LoadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	type rawEdge struct {
		u, v NodeID
		w    float64
	}
	var edges []rawEdge
	maxID := int64(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], err)
			}
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, rawEdge{NodeID(u), NodeID(v), w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	b := NewBuilder(int32(maxID+1), directed)
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// LoadEdgeListFile opens path and calls LoadEdgeList.
func LoadEdgeListFile(path string, directed bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }() // read-only handle: close error is immaterial
	g, err := LoadEdgeList(f, directed)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes g's arcs as "<from> <to> <weight>" lines. Undirected
// graphs are written with both arcs (lossless round trip through a directed
// load).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# goinfmax edge list: n=%d m=%d name=%s\n", g.n, g.m, g.name); err != nil {
		return err
	}
	for u := int32(0); u < g.n; u++ {
		to, ws := g.OutNeighbors(u)
		for i, v := range to {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveEdgeListFile atomically replaces path with the edge list (see
// durable.WriteFile).
func (g *Graph) SaveEdgeListFile(path string) error {
	return durable.WriteFile(path, g.WriteEdgeList)
}
