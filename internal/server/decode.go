package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// Decode caps. maxNodeID bounds node ids accepted on the update wire:
// MergeCSR grows the node table to the highest id seen, so an
// unbounded id would let one 20-byte line allocate gigabytes.
const (
	defaultMaxRequestBytes = 1 << 20 // 1 MiB body cap
	defaultMaxQueryNodes   = 1024
	defaultMaxUpdateOps    = 1 << 16
	maxNodeID              = 1 << 26
	maxUpdateLineBytes     = 1 << 20 // one update-stream line
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
	// "FPA-DMG". Case-insensitive.
	Variant string `json:"variant,omitempty"`
	// TimeoutMS is the client's deadline budget in milliseconds; 0 means
	// the server default. Capped by the server's MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoStale opts this request out of degraded-mode stale answers: under
	// overload it sheds instead of serving an old epoch.
	NoStale bool `json:"no_stale,omitempty"`
}

// decodeQuery parses and validates one /query body. maxNodes caps the
// query-set size (0 means the package default).
func decodeQuery(body []byte, maxNodes int) (queryRequest, dmcs.Variant, error) {
	if maxNodes <= 0 {
		maxNodes = defaultMaxQueryNodes
	}
	var req queryRequest
	if len(bytes.TrimSpace(body)) == 0 {
		return req, 0, errEmptyBody
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, 0, fmt.Errorf("server: bad query JSON: %w", err)
	}
	if dec.More() {
		return req, 0, errors.New("server: trailing data after query JSON")
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
	v, ok := variantByName(req.Variant)
	if !ok {
		return req, 0, fmt.Errorf("server: unknown variant %q (want FPA, NCA, NCA-DR, FPA-DMG)", req.Variant)
	}
	return req, v, nil
}

// variantByName maps wire algorithm names to DMCS variants; empty means
// the FPA default.
func variantByName(name string) (dmcs.Variant, bool) {
	switch strings.ToUpper(name) {
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
// body IS one atomic batch, applied as a whole by the handler. maxOps
// caps the staged op count (0 means the package default).
func parseUpdateOps(body []byte, maxOps int) (engine.Batch, error) {
	if maxOps <= 0 {
		maxOps = defaultMaxUpdateOps
	}
	var b engine.Batch
	lineNo := 0
	for next := 0; next < len(body); {
		line := body[next:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		next += len(line) + 1
		lineNo++
		if len(line) >= maxUpdateLineBytes {
			return b, fmt.Errorf("server: reading update body: %w", bufio.ErrTooLong)
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		cmd := updateKeyword(fields[0])
		args := fields[1:]
		if b.Len() >= maxOps {
			return b, fmt.Errorf("server: line %d: batch exceeds %d ops", lineNo, maxOps)
		}
		switch cmd {
		case "add", "setw":
			if len(args) < 2 {
				return b, fmt.Errorf("server: line %d: %s wants 2 node ids", lineNo, cmd)
			}
			u, err := parseNodeID(args[0])
			if err != nil {
				return b, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			v, err := parseNodeID(args[1])
			if err != nil {
				return b, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			switch {
			case len(args) >= 3:
				w, err := strconv.ParseFloat(string(args[2]), 64)
				if err != nil {
					return b, fmt.Errorf("server: line %d: bad weight %q: %v", lineNo, args[2], err)
				}
				b.SetWeight(u, v, w)
			case cmd == "setw":
				return b, fmt.Errorf("server: line %d: setw wants an explicit weight", lineNo)
			default:
				b.AddEdge(u, v)
			}
		case "del":
			if len(args) < 2 {
				return b, fmt.Errorf("server: line %d: del wants 2 node ids", lineNo)
			}
			u, err := parseNodeID(args[0])
			if err != nil {
				return b, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			v, err := parseNodeID(args[1])
			if err != nil {
				return b, fmt.Errorf("server: line %d: %v", lineNo, err)
			}
			b.RemoveEdge(u, v)
		case "node":
			if len(args) < 1 {
				return b, fmt.Errorf("server: line %d: node wants at least 1 id", lineNo)
			}
			for _, tok := range args {
				// One node line stages one op per id — re-check the cap per
				// op, not per line, or a single long line could blow it.
				if b.Len() >= maxOps {
					return b, fmt.Errorf("server: line %d: batch exceeds %d ops", lineNo, maxOps)
				}
				u, err := parseNodeID(tok)
				if err != nil {
					return b, fmt.Errorf("server: line %d: %v", lineNo, err)
				}
				b.AddNode(u)
			}
		default:
			return b, fmt.Errorf("server: line %d: unknown op %q (want add/setw/del/node)", lineNo, strings.ToLower(string(fields[0])))
		}
	}
	return b, nil
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
