package main

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dmcs/internal/graph"
)

// Requests are dispatched straight into the handler: no sockets, no
// httptest. Each client owns one pre-built *http.Request per endpoint and
// one reusable ResponseWriter, so what is timed is the server, not the
// harness; what the harness itself still costs is measured against a
// no-op handler (dispatchOverhead) and reported.

type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// respWriter is the minimal http.ResponseWriter: one header map, a
// status, and a body buffer, all reused across requests.
type respWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// caller dispatches POSTs to one path of one handler.
type caller struct {
	h   http.Handler
	req *http.Request
	rd  bodyReader
	rw  respWriter
}

func newCaller(h http.Handler, path string) *caller {
	c := &caller{h: h}
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		panic(err) // constant inputs
	}
	req.Body = &c.rd
	c.req = req
	c.rw.hdr = make(http.Header, 4)
	return c
}

// do runs one request and returns the status and the response body, which
// is valid until the next call.
func (c *caller) do(body []byte) (int, []byte) {
	c.rd.b, c.rd.off = body, 0
	clear(c.rw.hdr)
	c.rw.status, c.rw.body = 0, c.rw.body[:0]
	c.h.ServeHTTP(&c.rw, c.req)
	return c.rw.status, c.rw.body
}

// dispatchOverhead times do() against a handler that does nothing, in
// batches so the clock reads do not dominate, and returns ns per dispatch.
func dispatchOverhead(batches, per int) []float64 {
	c := newCaller(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), "/query")
	body := []byte(`{"nodes":[0]}`)
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			c.do(body)
		}
		out = append(out, float64(time.Since(t0))/float64(per))
	}
	return out
}

// answer is what the harness reads back from a /query response.
type answer struct {
	community []graph.Node
	size      int
	score     float64
	stale     bool
	timedOut  bool
}

// parseAnswer scans the server's queryResponse JSON without reflection:
// the check runs on every answer of a closed loop, so it has to cost less
// than the request it checks. It reports false on any shape it does not
// recognise.
func parseAnswer(b []byte, a *answer) bool {
	const open = `"community":[`
	i := bytes.Index(b, []byte(open))
	if i < 0 {
		return false
	}
	i += len(open)
	a.community = a.community[:0]
	for i < len(b) && b[i] != ']' {
		n := 0
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			n = n*10 + int(b[i]-'0')
			i++
		}
		if i == start {
			return false
		}
		a.community = append(a.community, graph.Node(n))
		if i < len(b) && b[i] == ',' {
			i++
		}
	}
	rest := b[min(i, len(b)):]
	size, ok := field(rest, `"size":`)
	if !ok {
		return false
	}
	score, ok := field(rest, `"score":`)
	if !ok {
		return false
	}
	stale, ok := field(rest, `"stale":`)
	if !ok {
		return false
	}
	timedOut, ok := field(rest, `"timed_out":`)
	if !ok {
		return false
	}
	var err error
	if a.size, err = strconv.Atoi(string(size)); err != nil {
		return false
	}
	if a.score, err = strconv.ParseFloat(string(score), 64); err != nil {
		return false
	}
	a.stale, a.timedOut = string(stale) == "true", string(timedOut) == "true"
	return true
}

// field returns the raw scalar after key, up to the next ',' or '}'.
func field(b []byte, key string) ([]byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, false
	}
	b = b[i+len(key):]
	end := bytes.IndexAny(b, ",}")
	if end < 0 {
		return nil, false
	}
	return b[:end], true
}

// contains reports whether sorted community holds u.
func contains(community []graph.Node, u graph.Node) bool {
	_, ok := slices.BinarySearch(community, u)
	return ok
}
