package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/engine"
	"dmcs/internal/graph"
)

// Request decoding. Both wire formats terminate in hard caps before any
// engine work: node counts, op counts, node ids, and timeout values are
// all bounded here, so a hostile body can cost at most one bounded
// parse — never an engine allocation sized by attacker-chosen numbers.
// Both decoders are pure ([]byte in, value out) and fuzzed
// (FuzzDecodeQuery, FuzzParseUpdateOps).
//
// A /query body takes one of two decoders, chosen by its bytes alone.
// The canonical spelling — what clients and the benchmark send: one
// object, the four keys in lower case and at most once each, ids and
// timeout as plain digits, the variant an escape-free ASCII string —
// is read by recogniseQuery, a byte walk that allocates nothing.
// Anything else (a key in another case, an escape, null, a sign, a
// fraction, a duplicate key, a syntax error, …) makes the recogniser
// decline, and decodeQueryJSON — encoding/json with
// DisallowUnknownFields — decides what the body means or why it is bad.
// The recogniser never rejects, so encoding/json alone defines the
// accepted language and words every decode error; FuzzDecodeQuery holds
// the two to the same answer wherever the recogniser accepts. The caps
// below are checked once, in decodeQuery, after either decoder.

// Decode caps. maxNodeID bounds node ids accepted on either wire. It is
// not what keeps an update small: MergeCSR grows the node table to the
// highest id seen, and an id near maxNodeID would still let one 20-byte
// line allocate gigabytes, so handleApply also caps a batch's growth at
// Config.MaxUpdateOps nodes.
const (
	maxRequestBytes      = 1 << 20 // 1 MiB body cap
	defaultMaxQueryNodes = 1024
	defaultMaxUpdateOps  = 1 << 16
	maxNodeID            = 1 << 26
	maxUpdateLineBytes   = 1 << 20 // one update-stream line
)

var (
	errEmptyBody  = errors.New("server: empty request body")
	errNoQuerySet = errors.New("server: query wants a non-empty \"nodes\" array")
)

// queryRequest is the POST /query wire format.
type queryRequest struct {
	// Nodes is the query-node id set (required, non-empty).
	Nodes []graph.Node `json:"nodes"`
	// Variant names the algorithm: "FPA" (default), "NCA", "NCA-DR",
	// "FPA-DMG". Case-insensitive. Only decodeQueryJSON fills it;
	// decodeQuery returns the resolved dmcs.Variant beside the request.
	Variant string `json:"variant,omitempty"`
	// TimeoutMS is the client's deadline budget in milliseconds; 0 means
	// the server default. Capped by the server's MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoStale opts this request out of degraded-mode stale answers: under
	// overload it sheds instead of serving an old epoch.
	NoStale bool `json:"no_stale,omitempty"`
}

// decodeQuery parses and validates one /query body. maxNodes caps the
// query-set size (0 means the package default). ids is recycled storage
// for the decoded node ids: the returned Nodes may alias it, and never
// outgrow it past maxNodes.
func decodeQuery(body []byte, maxNodes int, ids []graph.Node) (queryRequest, dmcs.Variant, error) {
	if maxNodes <= 0 {
		maxNodes = defaultMaxQueryNodes
	}
	req, name, ok := recogniseQuery(body, maxNodes, ids)
	if !ok {
		var err error
		if req, err = decodeQueryJSON(body); err != nil {
			return req, 0, err
		}
		name = []byte(req.Variant)
	}
	if len(req.Nodes) == 0 {
		return req, 0, errNoQuerySet
	}
	if len(req.Nodes) > maxNodes {
		return req, 0, fmt.Errorf("server: query has %d nodes, cap is %d", len(req.Nodes), maxNodes)
	}
	for _, u := range req.Nodes {
		if u < 0 || u > maxNodeID {
			return req, 0, fmt.Errorf("server: node id %d out of range [0,%d]", u, maxNodeID)
		}
	}
	if req.TimeoutMS < 0 {
		return req, 0, fmt.Errorf("server: negative timeout_ms %d", req.TimeoutMS)
	}
	v, ok := variantByName(name)
	if !ok {
		return req, 0, fmt.Errorf("server: unknown variant %q (want FPA, NCA, NCA-DR, FPA-DMG)", name)
	}
	return req, v, nil
}

// decodeQueryJSON is the reference decoder: whatever encoding/json makes
// of the body is what the body means.
func decodeQueryJSON(body []byte) (queryRequest, error) {
	var req queryRequest
	if len(bytes.TrimSpace(body)) == 0 {
		return req, errEmptyBody
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("server: bad query JSON: %w", err)
	}
	if dec.More() {
		return req, errors.New("server: trailing data after query JSON")
	}
	return req, nil
}

// queryKeys are the wire keys recogniseQuery knows, quotes included so a
// longer key cannot match by prefix; a key's index is its bit in the
// recogniser's seen mask.
var queryKeys = [...]string{`"nodes"`, `"variant"`, `"timeout_ms"`, `"no_stale"`}

// recogniseQuery reads a /query body in the canonical spelling (see the
// header of this file) without allocating: ids go into the recycled ids
// slice, the variant name comes back as a sub-slice of body (req.Variant
// stays empty). It reports ok == false — declining, with the other
// results meaningless — on every body it is not sure encoding/json reads
// the same way, including every malformed one; it never rejects. It
// also declines past maxNodes ids, which keeps ids from growing with a
// hostile body; no cap is enforced here.
//
//dmcs:hotpath
func recogniseQuery(body []byte, maxNodes int, ids []graph.Node) (req queryRequest, variant []byte, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return req, nil, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return req, nil, skipSpace(body, i+1) == len(body)
	}
	seen := 0
	for {
		k, j := -1, -1
		for n, key := range queryKeys {
			if j = skipLiteral(body, i, key); j >= 0 {
				k = n
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 {
			return req, nil, false
		}
		seen |= 1 << k
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return req, nil, false
		}
		i = skipSpace(body, i+1)
		switch k {
		case 0: // nodes: a non-empty array of plain ids that fit a graph.Node
			if i >= len(body) || body[i] != '[' {
				return req, nil, false
			}
			ids = ids[:0]
			for more := true; more; {
				v, j := scanDigits(body, skipSpace(body, i+1))
				if j < 0 || v > math.MaxInt32 || len(ids) == maxNodes {
					return req, nil, false
				}
				ids = append(ids, graph.Node(v))
				i = skipSpace(body, j)
				if i >= len(body) || (body[i] != ',' && body[i] != ']') {
					return req, nil, false
				}
				more = body[i] == ','
			}
			req.Nodes = ids
			i++
		case 1: // variant: printable ASCII, no escape
			if i >= len(body) || body[i] != '"' {
				return req, nil, false
			}
			j := i + 1
			for j < len(body) && body[j] != '"' {
				if c := body[j]; c < ' ' || c > '~' || c == '\\' {
					return req, nil, false
				}
				j++
			}
			if j >= len(body) {
				return req, nil, false
			}
			variant = body[i+1 : j]
			i = j + 1
		case 2: // timeout_ms: plain digits
			if req.TimeoutMS, i = scanDigits(body, i); i < 0 {
				return req, nil, false
			}
		case 3: // no_stale
			if j := skipLiteral(body, i, "true"); j >= 0 {
				req.NoStale, i = true, j
			} else if i = skipLiteral(body, i, "false"); i < 0 {
				return req, nil, false
			}
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return req, nil, false
		}
		if body[i] == '}' {
			return req, variant, skipSpace(body, i+1) == len(body)
		}
		if body[i] != ',' {
			return req, nil, false
		}
		i = skipSpace(body, i+1)
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipLiteral returns the index after lit when b[i:] starts with it, or
// -1.
func skipLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) {
		return -1
	}
	for k := 0; k < len(lit); k++ {
		if b[i+k] != lit[k] {
			return -1
		}
	}
	return i + len(lit)
}

// scanDigits reads the plain non-negative integer at b[i:] — digits
// only, no leading zero, at most 15 of them so the value cannot overflow
// — and returns it with the index after it, or -1 when there is none.
// What follows the digits is the caller's to check.
func scanDigits(b []byte, i int) (int64, int) {
	start, v := i, int64(0)
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if n := i - start; n == 0 || n > 15 || (n > 1 && b[start] == '0') {
		return 0, -1
	}
	return v, i
}

// variantByName maps wire algorithm names to DMCS variants in any letter
// case; empty means the FPA default. Only the ASCII letters fold: no
// other rune upper-cases to a letter these names use.
func variantByName(name []byte) (dmcs.Variant, bool) {
	var up [len("FPA-DMG")]byte
	if len(name) > len(up) {
		return 0, false
	}
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up[:len(name)]) {
	case "", "FPA":
		return dmcs.VariantFPA, true
	case "NCA":
		return dmcs.VariantNCA, true
	case "NCA-DR", "NCADR":
		return dmcs.VariantNCADR, true
	case "FPA-DMG", "FPADMG":
		return dmcs.VariantFPADMG, true
	}
	return 0, false
}

// timeoutOf resolves the request's effective deadline budget against
// the server's default and cap.
func (r queryRequest) timeoutOf(def, max time.Duration) time.Duration {
	d := def
	if r.TimeoutMS > 0 {
		d = time.Duration(r.TimeoutMS) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// parseUpdateOps parses a POST /apply body: the same line format as the
// CLI update stream (`add u v [w]`, `setw u v w`, `del u v`,
// `node u...`, plus blank lines and # comments), except operands are
// numeric node ids, and `apply`/`query` lines are rejected — the HTTP
// body IS one atomic batch, applied as a whole by the handler. A weight
// must be finite and non-negative (graph.ParseWeight). maxOps caps the
// staged op count (0 means the package default). top is the highest node
// id the batch names, or -1 when it names none; the handler holds it to
// the growth cap, which depends on the graph the batch will meet.
func parseUpdateOps(body []byte, maxOps int) (b engine.Batch, top graph.Node, err error) {
	if maxOps <= 0 {
		maxOps = defaultMaxUpdateOps
	}
	top = -1
	lineNo := 0
	for next := 0; next < len(body); {
		line := body[next:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		next += len(line) + 1
		lineNo++
		if len(line) >= maxUpdateLineBytes {
			return b, top, fmt.Errorf("server: reading update body: %w", bufio.ErrTooLong)
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		cmd := updateKeyword(fields[0])
		args := fields[1:]
		if b.Len() >= maxOps {
			return b, top, fmt.Errorf("server: line %d: batch exceeds %d ops", lineNo, maxOps)
		}
		switch cmd {
		case "add", "setw":
			if len(args) < 2 {
				return b, top, fmt.Errorf("server: line %d: %s wants 2 node ids", lineNo, cmd)
			}
			u, err := parseNodeID(args[0])
			if err != nil {
				return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			v, err := parseNodeID(args[1])
			if err != nil {
				return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			top = max(top, u, v)
			switch {
			case len(args) >= 3:
				w, err := graph.ParseWeight(string(args[2]))
				if err != nil {
					return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
				}
				b.SetWeight(u, v, w)
			case cmd == "setw":
				return b, top, fmt.Errorf("server: line %d: setw wants an explicit weight", lineNo)
			default:
				b.AddEdge(u, v)
			}
		case "del":
			if len(args) < 2 {
				return b, top, fmt.Errorf("server: line %d: del wants 2 node ids", lineNo)
			}
			u, err := parseNodeID(args[0])
			if err != nil {
				return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			v, err := parseNodeID(args[1])
			if err != nil {
				return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			top = max(top, u, v)
			b.RemoveEdge(u, v)
		case "node":
			if len(args) < 1 {
				return b, top, fmt.Errorf("server: line %d: node wants at least 1 id", lineNo)
			}
			for _, tok := range args {
				// One node line stages one op per id — re-check the cap per
				// op, not per line, or a single long line could blow it.
				if b.Len() >= maxOps {
					return b, top, fmt.Errorf("server: line %d: batch exceeds %d ops", lineNo, maxOps)
				}
				u, err := parseNodeID(tok)
				if err != nil {
					return b, top, fmt.Errorf("server: line %d: %v", lineNo, err)
				}
				top = max(top, u)
				b.AddNode(u)
			}
		default:
			return b, top, fmt.Errorf("server: line %d: unknown op %q (want add/setw/del/node)", lineNo, strings.ToLower(string(fields[0])))
		}
	}
	return b, top, nil
}

// updateKeyword returns the update-stream op tok spells in any letter
// case, or "" when it is none. Only the ASCII letters fold: no other rune
// lower-cases to a letter these four keywords use.
func updateKeyword(tok []byte) string {
	for _, kw := range [...]string{"add", "setw", "del", "node"} {
		if len(tok) != len(kw) {
			continue
		}
		i := 0
		for i < len(kw) && tok[i]|0x20 == kw[i] {
			i++
		}
		if i == len(kw) {
			return kw
		}
	}
	return ""
}

func parseNodeID(tok []byte) (graph.Node, error) {
	n, err := strconv.ParseUint(string(tok), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q: %v", tok, err)
	}
	if n > maxNodeID {
		return 0, fmt.Errorf("node id %d above cap %d", n, maxNodeID)
	}
	return graph.Node(n), nil
}
