package persist

import (
	"io"

	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/algo/snapshot"
	"github.com/sigdata/goinfmax/internal/durable"
	"github.com/sigdata/goinfmax/internal/graphalgo"
)

// Snapshot is one persisted oracle: a header plus exactly one payload,
// selected by Header.Backend.
type Snapshot struct {
	Header Header
	// RRIndex is the payload when Header.Backend == "rrset".
	RRIndex *rrset.Index
	// Pool is the payload when Header.Backend == "snapshot".
	Pool *snapshot.Pool
}

// Save writes the snapshot to path with the atomic, checksummed protocol
// (see durable.WriteEnvelope). Each backend persists the one form of its
// state it keeps: the RR index's inversion (u64 θ | int64s off, n+1 |
// int32s data, each node's run of set ids strictly ascending), or the
// pool's condensation DAGs, whose priors and layout the load path derives
// again.
func Save(path string, s *Snapshot) error {
	return durable.WriteEnvelope(path, magic, FormatVersion, func(w io.Writer) error {
		e := newEncoder(w)
		e.str(s.Header.Backend)
		e.u64(s.Header.Fingerprint)
		e.u64(s.Header.BuildSeed)
		e.i64(s.Header.IndexSize)
		e.i32(s.Header.Nodes)
		switch {
		case s.RRIndex != nil:
			numSets, off, data := s.RRIndex.Inversion()
			e.u64(uint64(numSets))
			e.int64s(off)
			e.int32s(data)
		case s.Pool != nil:
			dags := s.Pool.DAGs()
			e.u32(uint32(len(dags)))
			for _, dag := range dags {
				e.i32(dag.NComp)
				e.int32s(dag.Comp)
				e.int32s(dag.Size)
				e.int64s(dag.Off)
				e.int32s(dag.To)
			}
		}
		return e.err()
	})
}

// Load reads, verifies and rehydrates the snapshot at path. want carries
// what the caller is about to serve — backend, graph fingerprint, build
// seed, index size, node count — and every field is checked against the
// stored header before the payload is decoded. Any failure at any rung of
// the ladder returns a *LoadError whose Reason says which rung; the
// caller's recovery is always the same: log it and rebuild.
func Load(path string, want Header) (*Snapshot, error) {
	payload, lerr := readVerified(path)
	if lerr != nil {
		return nil, lerr
	}
	d := newDecoder(payload)
	got := Header{
		Backend:     d.str(),
		Fingerprint: d.u64(),
		BuildSeed:   d.u64(),
		IndexSize:   d.i64(),
		Nodes:       d.i32(),
	}
	if err := d.err(); err != nil {
		return nil, loadErrf(path, ReasonCorrupt, "header: %v", err)
	}
	if got.Backend != want.Backend {
		return nil, loadErrf(path, ReasonBackend, "snapshot holds a %q oracle, serving wants %q", got.Backend, want.Backend)
	}
	if got.Fingerprint != want.Fingerprint || got.Nodes != want.Nodes {
		return nil, loadErrf(path, ReasonFingerprint,
			"snapshot indexed graph %016x (%d nodes), serving graph is %016x (%d nodes)",
			got.Fingerprint, got.Nodes, want.Fingerprint, want.Nodes)
	}
	if got.BuildSeed != want.BuildSeed || got.IndexSize != want.IndexSize {
		return nil, loadErrf(path, ReasonParams,
			"snapshot built with seed=%d size=%d, serving wants seed=%d size=%d",
			got.BuildSeed, got.IndexSize, want.BuildSeed, want.IndexSize)
	}

	out := &Snapshot{Header: got}
	switch got.Backend {
	case "rrset":
		numSets := d.u64()
		off := d.int64s()
		data := d.int32s()
		if err := d.err(); err != nil {
			return nil, loadErrf(path, ReasonCorrupt, "rrset inversion: %v", err)
		}
		// Every RR set holds its root, so θ is at most the memberships
		// listed. The bound comes before θ sizes the cover marks.
		if numSets > uint64(len(data)) {
			return nil, loadErrf(path, ReasonCorrupt, "rrset inversion: %d sets but %d memberships", numSets, len(data))
		}
		ix, err := rrset.NewIndexFromInversion(got.Nodes, int(numSets), off, data)
		if err != nil {
			return nil, loadErrf(path, ReasonCorrupt, "rrset inversion: %v", err)
		}
		out.RRIndex = ix
	case "snapshot":
		r := int(d.u32())
		if err := d.err(); err != nil {
			return nil, loadErrf(path, ReasonCorrupt, "pool size: %v", err)
		}
		if r < 0 || r > len(payload) {
			return nil, loadErrf(path, ReasonCorrupt, "pool claims %d snapshots in a %d-byte payload", r, len(payload))
		}
		dags := make([]*graphalgo.Condensation, 0, r)
		for i := 0; i < r; i++ {
			dag := &graphalgo.Condensation{
				NComp: d.i32(),
				Comp:  d.int32s(),
				Size:  d.int32s(),
				Off:   d.int64s(),
				To:    d.int32s(),
			}
			if err := d.err(); err != nil {
				return nil, loadErrf(path, ReasonCorrupt, "DAG %d: %v", i, err)
			}
			dags = append(dags, dag)
		}
		pool, err := snapshot.NewPoolFromDAGs(got.Nodes, dags)
		if err != nil {
			return nil, loadErrf(path, ReasonCorrupt, "%v", err)
		}
		out.Pool = pool
	default:
		return nil, loadErrf(path, ReasonCorrupt, "unknown backend %q", got.Backend)
	}
	if rest := len(payload) - d.off; rest != 0 {
		return nil, loadErrf(path, ReasonCorrupt, "%d trailing bytes after payload", rest)
	}
	return out, nil
}
