package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/sigdata/goinfmax/internal/graph"
)

// The /v1/seeds and /v1/spread codec.
//
// A warm oracle answers in microseconds, so encoding/json's reflection
// would be most of a request. The success bodies are appended by hand,
// byte-identical to json.Marshal of seedsResponse and spreadResponse,
// which stay the schema and the tests' reference. Request bodies are read
// once into a pooled buffer and parsed by a strict fast path that
// recognizes only the shape clients send: one object of the request
// type's exact lowercase keys, each at most once, holding integers that
// fit their fields. Every other input goes, as the same bytes, to
// json.Decoder with DisallowUnknownFields, which defines what the routes
// accept. The fast path accepts a strict subset of that and fills the
// struct the decoder would, so it changes no decoded request and no 400
// message; FuzzServeDecode holds the two to that.

// Pre-canonicalized header values, assigned to the header map directly
// instead of through Header().Set, which canonicalizes the key and
// allocates a fresh slice per call. They are shared, so nothing may
// write through them; net/http copies header values before changing any.
var (
	contentTypeJSON = []string{"application/json"}
	xCacheHit       = []string{"hit"}
	xCacheMiss      = []string{"miss"}
	retryAfterOne   = []string{"1"}
)

// maxPooledBody caps the buffers bodyPool keeps: one large seed list
// must not pin its memory for the life of the process.
const maxPooledBody = 64 << 10

// bodyPool recycles request-body buffers.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// decodeBody reads r's body once and decodes it into req: by fast when
// it fully recognizes the bytes, otherwise by the strict json.Decoder, so
// typos like "evalsim" fail loudly instead of silently running with
// defaults. A body the decoder rejects gets a 400.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, req *T, fast func([]byte, *T) bool) bool {
	buf := bodyPool.Get().(*[]byte)
	data, err := readBody((*buf)[:0], r.Body, maxBodyBytes)
	err = decodeRequest(data, err, req, fast)
	if cap(data) <= maxPooledBody {
		*buf = data
		bodyPool.Put(buf)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// readBody appends r's bytes to b until EOF, a read error or limit bytes:
// what io.LimitReader(r, limit) delivers to a decoder. The error is nil at
// EOF and at the limit.
func readBody(b []byte, r io.Reader, limit int) ([]byte, error) {
	for len(b) < limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// decodeRequest decodes data, read up to readErr, into the zero-valued
// req. fast may accept data only when readErr is nil; otherwise req is
// reset and json.Decoder reads data and then readErr, the order in which
// a decoder reading the body itself meets them. Such a decoder stops at
// the end of the first value, so it reaches the same verdict on the
// buffered bytes as on the live body.
func decodeRequest[T any](data []byte, readErr error, req *T, fast func([]byte, *T) bool) error {
	if readErr == nil && fast(data, req) {
		return nil
	}
	var zero T
	*req = zero
	var src io.Reader = bytes.NewReader(data)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeSeedsFast parses a seedsRequest of the fast-path shape.
func decodeSeedsFast(data []byte, req *seedsRequest) bool {
	s := scanner{data: data}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "k":
			v, ok := s.int(math.MinInt, math.MaxInt)
			req.K = int(v)
			return ok && once(&seen, 1)
		case "budget_ms":
			v, ok := s.int(math.MinInt64, math.MaxInt64)
			req.BudgetMS = v
			return ok && once(&seen, 2)
		}
		return false
	})
}

// decodeSpreadFast parses a spreadRequest of the fast-path shape.
func decodeSpreadFast(data []byte, req *spreadRequest) bool {
	s := scanner{data: data}
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "seeds":
			ids, ok := s.nodeIDs()
			req.Seeds = ids
			return ok && once(&seen, 1)
		case "evalsims":
			v, ok := s.int(math.MinInt, math.MaxInt)
			req.EvalSims = int(v)
			return ok && once(&seen, 2)
		case "budget_ms":
			v, ok := s.int(math.MinInt64, math.MaxInt64)
			req.BudgetMS = v
			return ok && once(&seen, 4)
		}
		return false
	})
}

// once reports whether bit was clear in seen, and sets it: a key that
// appears twice leaves the fast path.
func once(seen *uint8, bit uint8) bool {
	first := *seen&bit == 0
	*seen |= bit
	return first
}

// scanner is the fast path's cursor over a request body. Each method
// reports false on any input outside the fast-path shape.
type scanner struct {
	data []byte
	pos  int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object parses the whole body as one object followed by nothing but
// whitespace. value parses the value after each key and its colon.
func (s *scanner) object(value func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		for {
			key, ok := s.key()
			if !ok || !value(key) {
				return false
			}
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.space()
	return s.pos == len(s.data)
}

// key reads a quoted key and the colon after it. The key's bytes are
// returned raw: one with an escape never equals a request field's name,
// so it leaves the fast path.
func (s *scanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.pos
	end := bytes.IndexByte(s.data[start:], '"')
	if end < 0 {
		return nil, false
	}
	s.pos = start + end + 1
	return s.data[start : start+end], s.next(':')
}

// int reads an integer -?(0|[1-9][0-9]*) in [lo, hi], lo < 0 < hi.
func (s *scanner) int(lo, hi int64) (int64, bool) {
	s.space()
	neg := s.pos < len(s.data) && s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	limit := uint64(hi)
	if neg {
		limit = uint64(-(lo + 1)) + 1
	}
	start := s.pos
	var v uint64
	for ; s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9'; s.pos++ {
		if v > limit/10 {
			return 0, false
		}
		v = v*10 + uint64(s.data[s.pos]-'0')
		if v > limit {
			return 0, false
		}
	}
	if digits := s.pos - start; digits == 0 || digits > 1 && s.data[start] == '0' {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// nodeIDs reads an array of int32 integers into one slice, sized by the
// commas before the first ']'. An empty array decodes to an empty,
// non-nil slice, as encoding/json decodes it.
func (s *scanner) nodeIDs() ([]graph.NodeID, bool) {
	if !s.next('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.data[s.pos:], ']')
	if end < 0 {
		return nil, false
	}
	ids := make([]graph.NodeID, 0, bytes.Count(s.data[s.pos:s.pos+end], []byte{','})+1)
	if s.next(']') {
		return ids, true
	}
	for {
		v, ok := s.int(math.MinInt32, math.MaxInt32)
		if !ok {
			return nil, false
		}
		ids = append(ids, graph.NodeID(v))
		if s.next(']') {
			return ids, true
		}
		if !s.next(',') {
			return nil, false
		}
	}
}

// errUnsupportedFloat is a NaN or infinite float, which JSON cannot
// carry; json.Marshal fails on it too.
var errUnsupportedFloat = errors.New("serve: NaN or infinite float has no JSON encoding")

// encode returns json.Marshal(r)'s bytes.
func (r *seedsResponse) encode() ([]byte, error) {
	b := make([]byte, 0, 96+len(r.Backend)+8*len(r.Seeds))
	b = append(b, `{"backend":`...)
	b = appendString(b, r.Backend)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"seeds":`...)
	b = appendNodeIDs(b, r.Seeds)
	b = append(b, `,"spread":`...)
	b, err := appendFloat(b, r.Spread)
	if err != nil {
		return nil, err
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}'), nil
}

// encode returns json.Marshal(r)'s bytes.
func (r *spreadResponse) encode() ([]byte, error) {
	b := make([]byte, 0, 128+len(r.Backend)+8*len(r.Seeds))
	b = append(b, `{"backend":`...)
	b = appendString(b, r.Backend)
	b = append(b, `,"seeds":`...)
	b = appendNodeIDs(b, r.Seeds)
	b = append(b, `,"spread":`...)
	b, err := appendFloat(b, r.Spread)
	if err != nil {
		return nil, err
	}
	if r.StdErr != nil {
		b = append(b, `,"stderr":`...)
		if b, err = appendFloat(b, *r.StdErr); err != nil {
			return nil, err
		}
	}
	if r.EvalSims != 0 {
		b = append(b, `,"evalsims":`...)
		b = strconv.AppendInt(b, int64(r.EvalSims), 10)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}'), nil
}

// appendString appends s as encoding/json quotes it. A string of
// printable ASCII that needs no escape, which every backend name is, is
// copied as is; any other string goes through json.Marshal, which owns the
// escaping rules (HTML-safe <, > and &, U+2028 and U+2029, invalid UTF-8).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendNodeIDs appends ids as a JSON array, or null for a nil slice.
func appendNodeIDs(b []byte, ids []graph.NodeID) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up, with the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
