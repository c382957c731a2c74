package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// TestQueryResponseBytesMatchEncodingJSON pins the /query wire contract:
// appendAnswer + appendTail emit exactly json.Marshal(queryResponse) and
// encoding/json's newline, so queryResponse stays the one declaration of
// the shape and a field changed there without the encoder fails here.
func TestQueryResponseBytesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scores := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, math.Nextafter(1e-6, 0),
		1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e-9, 1e-10, 1.5e-10, 1e100, 1e-100,
		math.SmallestNonzeroFloat64, 2.5e-310, math.MaxFloat64, 13.520833333333334,
	}
	score := func(i int) float64 {
		switch {
		case i < len(scores):
			return scores[i]
		case i%3 == 0:
			return rng.NormFloat64()
		case i%3 == 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	community := func(i int) []graph.Node {
		switch i % 8 {
		case 0:
			return nil
		case 1:
			return []graph.Node{}
		}
		c := make([]graph.Node, 1+rng.Intn(300))
		for j := range c {
			c[j] = graph.Node(rng.Intn(maxNodeID + 1))
		}
		c[rng.Intn(len(c))] = maxNodeID
		return c
	}
	var buf []byte
	for i := 0; i < 20000; i++ {
		res := &dmcs.Result{Community: community(i), Score: score(i), TimedOut: rng.Intn(2) == 0}
		epoch, stale, elapsed := rng.Uint64()>>uint(rng.Intn(64)), rng.Intn(2) == 0, rng.Int63()>>uint(rng.Intn(63))
		if i%5 == 0 {
			epoch = math.MaxUint64
		}
		want, err := json.Marshal(queryResponse{
			Community: res.Community, Size: len(res.Community), Score: res.Score,
			Epoch: epoch, Stale: stale, TimedOut: res.TimedOut, ElapsedUS: elapsed,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf = appendTail(appendAnswer(buf[:0], res), epoch, stale, res.TimedOut, elapsed)
		if !bytes.Equal(buf, append(want, '\n')) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, buf, want)
		}
		// What the engine memoises is the same prefix.
		if enc := encodeAnswer(res); !bytes.HasPrefix(buf, enc) || len(enc) == 0 {
			t.Fatalf("case %d: encodeAnswer %s is not a prefix of %s", i, enc, buf)
		}
	}
}

// TestWriteResultRefusesNonFiniteScore: a score encoding/json cannot
// render used to go out as 200 with an empty body (writeJSON dropped the
// Encode error). It is a 500 now, and encodeAnswer hands the engine
// nothing to memoise.
func TestWriteResultRefusesNonFiniteScore(t *testing.T) {
	s, _ := newTestServer(t, engine.Options{}, Config{})
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &dmcs.Result{Community: []graph.Node{1, 2}, Score: score}
		w := httptest.NewRecorder()
		s.writeResult(w, new(queryScratch), res, nil, 3, false, time.Millisecond)
		wantCode(t, w, http.StatusInternalServerError, "internal")
		if enc := encodeAnswer(res); enc != nil {
			t.Fatalf("encodeAnswer(score %v) = %q, want nil", score, enc)
		}
	}
}

// replayBody is a request body that can be rewound, and hitWriter the
// minimal reusable ResponseWriter, so that what TestQueryHitAllocs and
// BenchmarkServeQueryHit measure is the server and not httptest.
type replayBody struct {
	b   []byte
	off int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

type hitWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *hitWriter) Header() http.Header  { return w.hdr }
func (w *hitWriter) WriteHeader(code int) { w.status = code }
func (w *hitWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// hitClient dispatches prepared /query bodies straight into ServeHTTP.
type hitClient struct {
	s   *Server
	req *http.Request
	rd  replayBody
	w   hitWriter
}

func newHitClient(tb testing.TB, s *Server) *hitClient {
	c := &hitClient{s: s}
	req, err := http.NewRequest(http.MethodPost, "/query", nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Body = &c.rd
	c.req = req
	c.w.hdr = make(http.Header, 4)
	return c
}

func (c *hitClient) do(body []byte) (int, []byte) {
	c.rd.b, c.rd.off = body, 0
	clear(c.w.hdr)
	c.w.status, c.w.body = http.StatusOK, c.w.body[:0]
	c.s.ServeHTTP(&c.w, c.req)
	return c.w.status, c.w.body
}

// TestQueryHitAllocs bounds what a warmed /query costs in allocations:
// the http.MaxBytesReader wrapper and nothing else. It also holds the
// memoised body to the bytes the first (computed) answer carried.
func TestQueryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, _ := newTestServer(t, engine.Options{}, Config{CheapRate: 1e9})
	c := newHitClient(t, s)
	body := []byte(`{"nodes":[3,5]}`)
	untilElapsed := func(b []byte) string {
		i := bytes.Index(b, []byte(`,"elapsed_us":`))
		if i < 0 {
			t.Fatalf("no elapsed_us in %s", b)
		}
		return string(b[:i])
	}
	status, first := c.do(body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	computed := untilElapsed(first)
	for i := 0; i < 3; i++ { // hit that encodes and attaches, then memoised hits
		if _, again := c.do(body); untilElapsed(again) != computed {
			t.Fatalf("hit %d body %s, computed answer was %s", i, again, computed)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if status, _ := c.do(body); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	})
	if allocs > 1 {
		t.Fatalf("a warmed /query allocates %.1f objects per request, want <= 1", allocs)
	}
}

// BenchmarkServeQueryHit is the server's cost of a cache hit, end to end
// through ServeHTTP, on the benchmark's island fixture: 256 ring+chord
// islands of 64 nodes, two warmed single-node keys each.
func BenchmarkServeQueryHit(b *testing.B) {
	const islands, size = 256, 64
	eng := engine.New(serverTestGraph(islands, size, 8), engine.Options{})
	s := New(eng, Config{SampleInterval: -1, CheapRate: 1e9, ExpensiveRate: 1e9})
	defer s.Close()
	c := newHitClient(b, s)
	bodies := make([][]byte, 0, 2*islands)
	for i := 0; i < islands; i++ {
		for _, off := range []int{0, size / 2} {
			body := strconv.AppendInt([]byte(`{"nodes":[`), int64(i*size+off), 10)
			bodies = append(bodies, append(body, "]}"...))
		}
	}
	for pass := 0; pass < 2; pass++ { // compute, then the hit that attaches the encoding
		for _, body := range bodies {
			if status, resp := c.do(body); status != http.StatusOK {
				b.Fatalf("warming: status %d: %s", status, resp)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := c.do(bodies[i%len(bodies)]); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}
