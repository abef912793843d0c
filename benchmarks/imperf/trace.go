package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into the program: a sweep
// cell, an evaluation batch, an oracle boot, a request, or a replayed
// layer call. Times are nanoseconds since the trace started.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// maxRequestSpans bounds the request spans load clients keep. Closed-loop
// traffic on the cached workload issues about a million requests in a
// traced run; past the cap their spans are counted as dropped instead of
// stored. Every span held is heap the garbage collector scans, so a
// larger cap shows up as tracing overhead on the allocation-heavy serving
// workloads. Spans the harness opens itself (phases, boots, cells,
// replayed calls) number a few thousand and are always kept.
const maxRequestSpans = 1 << 16

// tracer records spans in memory; they are written out when the run
// ends. A tracer that is off records nothing and costs one branch.
// begin and end are safe for concurrent use; load clients record into
// their own spanBuf instead, so tracing adds no lock to a request.
type tracer struct {
	on       bool
	origin   time.Time
	nextID   atomic.Int64 // span ids handed out, singly or in blocks
	buffered atomic.Int64 // ids handed to spanBufs, capped at maxRequestSpans
	dropped  atomic.Int64

	mu    sync.Mutex
	spans []span
	open  map[int64]int // id of a span begun with begin -> index in spans
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), open: make(map[int64]int)}
}

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// begin opens a span under parent (0 for a root) and returns its id, or
// 0 when tracing is off.
func (t *tracer) begin(parent int64, name string) int64 {
	if !t.on {
		return 0
	}
	id := t.nextID.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Start: t.now(), End: -1}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, s)
	return id
}

// end closes span id, attaching counts (may be nil).
func (t *tracer) end(id int64, counts map[string]int64) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.open[id]]
	delete(t.open, id)
	s.End = now
	s.Counts = counts
}

// spanBuf collects one goroutine's spans without locking; flush hands
// them to the tracer. It takes span ids from the tracer a block at a
// time, so a request pays no shared atomic.
type spanBuf struct {
	t           *tracer
	spans       []span
	next, limit int64 // reserved ids not yet used: [next, limit)
	full        bool
	dropped     int64
}

// idBlock is how many span ids a spanBuf reserves at once.
const idBlock = 1024

func (t *tracer) buffer() *spanBuf { return &spanBuf{t: t} }

// begin opens a span and returns a handle for end, or 0.
func (b *spanBuf) begin(parent int64, name string) int {
	if !b.t.on {
		return 0
	}
	if b.next == b.limit && !b.refill() {
		b.dropped++
		return 0
	}
	id := b.next
	b.next++
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: b.t.now(), End: -1})
	return len(b.spans)
}

// refill reserves the next block of ids, reporting false once the
// request spans are used up.
func (b *spanBuf) refill() bool {
	if b.full || b.t.buffered.Add(idBlock) > maxRequestSpans {
		b.full = true
		return false
	}
	hi := b.t.nextID.Add(idBlock)
	b.next, b.limit = hi-idBlock+1, hi+1
	return true
}

func (b *spanBuf) end(h int, counts map[string]int64) {
	if h == 0 {
		return
	}
	s := &b.spans[h-1]
	s.End = b.t.now()
	s.Counts = counts
}

func (b *spanBuf) flush() {
	b.t.dropped.Add(b.dropped)
	b.dropped = 0
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.spans = nil
}

// timed runs f inside a span and returns f's wall time in seconds. The
// time is taken whether or not tracing is on.
func (t *tracer) timed(parent int64, name string, f func()) float64 {
	id := t.begin(parent, name)
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	t.end(id, nil)
	return d
}

// finish closes the store and fills in every span's self time: its
// duration minus the part of its interval that its children cover.
// Children may overlap (two client goroutines under one phase), so the
// covered part is the length of the union of their intervals.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	t.open = nil
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return t.spans
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName sums self time per span name, in seconds, with the number
// of spans of each name.
func selfByName(spans []span) (names []string, self map[string]float64, count map[string]int64) {
	self = make(map[string]float64)
	count = make(map[string]int64)
	for _, s := range spans {
		if _, seen := self[s.Name]; !seen {
			names = append(names, s.Name)
		}
		self[s.Name] += float64(s.Self) / 1e9
		count[s.Name]++
	}
	sort.Strings(names)
	return names, self, count
}

// writeSpans writes the spans of one workload run as JSON.
func writeSpans(path, workload string, spans []span, dropped int64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, dropped, spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
