package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/dmcsref"
	"dmcs/internal/dmcsref/refstate"
	"dmcs/internal/engine"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
)

// The chaos storm: hammer the full serving tier over real HTTP while a
// mutator applies generated batches (internal/dmcsref) and a chaos
// goroutine arms and clears every injection point (latency, errors,
// panics, slow Apply, dropped responses). Run under -race in CI.
//
// The invariants checked on every single response:
//
//   - Every complete answer holds to the model. A fresh answer is the
//     model's at the version its component had at some epoch since the
//     newest Apply acknowledged before the request was sent: a result
//     computed partly against two versions matches neither. A stale
//     answer is exact for the version it names, and that version was
//     superseded. A well-formed query the model refuses gets a 400.
//   - Refusals are always explicit, well-formed JSON with the documented
//     codes; injected faults surface as 500s, never as wrong answers.
//   - Shutdown completes: after the storm, drain + close finish under a
//     watchdog, and the engine's answers still hold to the model, so the
//     panics and poisoned arenas along the way left nothing behind.
func TestChaosServingStorm(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	const islands, size = 8, 16
	gen := dmcsref.NewGen(1, islands, size)
	n, edges := gen.Graph()
	m := dmcsref.NewModel(n, edges)
	eng := engine.New(refstate.Graph(n, edges), engine.Options{StaleRetention: 8})
	// Live sampler with a deliberately twitchy SLO so the storm actually
	// drives the overload states, not just the happy path. Two bridged
	// islands make an expensive component.
	s := New(eng, Config{
		SampleInterval: 10 * time.Millisecond,
		ExpensiveNodes: 2 * size,
		Overload:       OverloadConfig{SLO: 2 * time.Millisecond, CalmSamples: 2},
	})
	ts := httptest.NewServer(s)

	duration := 3 * time.Second
	if testing.Short() {
		duration = 800 * time.Millisecond
	}
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		complete atomic.Int64 // complete 200s checked against the model
		staleOK  atomic.Int64
		refused  atomic.Int64
		faulted  atomic.Int64 // transport-level failures (dropped responses)
	)
	client := &http.Client{Timeout: 5 * time.Second}

	// Query workers: each repeats a few generated queries, so answers get
	// cached and go stale, as dmcsd runs them (FPA with layer pruning, the
	// other variants without); mixed budgets, some no_stale, some garbage.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qgen := dmcsref.NewGen(int64(10+w), islands, size)
			pool := make([]dmcsref.Query, 6)
			for i := range pool {
				pool[i] = qgen.Query()
				pool[i].Peel = dmcsref.Peel{Variant: pool[i].Peel.Variant, Pruning: pool[i].Peel.Variant == "FPA"}
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := pool[(i*7+w)%len(pool)]
				nodes, _ := json.Marshal(q.Nodes)
				timeout := 500
				if q.Deadline {
					timeout = 1 // likely a queue/peel timeout under chaos
				}
				body := fmt.Sprintf(`{"nodes":%s,"variant":%q,"timeout_ms":%d,"no_stale":%v}`, nodes, q.Peel.Variant, timeout, i%7 == 0)
				malformed := i%6 == 5
				if malformed {
					body = `{"nodes":[`
				}
				from := m.Acked()
				hr, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					faulted.Add(1)
					continue
				}
				raw, rerr := io.ReadAll(hr.Body)
				hr.Body.Close()
				if rerr != nil {
					faulted.Add(1)
					continue
				}
				switch hr.StatusCode {
				case http.StatusOK:
					var resp queryResponse
					if err := json.Unmarshal(raw, &resp); err != nil {
						t.Errorf("bad 200 body %q: %v", raw, err)
						return
					}
					if resp.TimedOut {
						continue // partial: best-so-far, no exactness contract
					}
					ans := dmcsref.Answer{Score: resp.Score, Versioned: resp.Stale, Stale: resp.Stale, Version: resp.Epoch}
					for _, u := range resp.Community {
						ans.Community = append(ans.Community, int(u))
					}
					if err := m.Check(q, ans, from); err != nil {
						t.Error(err)
						return
					}
					if resp.Stale {
						staleOK.Add(1)
					}
					complete.Add(1)
				case http.StatusTooManyRequests, http.StatusBadRequest,
					http.StatusUnprocessableEntity, http.StatusGatewayTimeout,
					http.StatusInternalServerError, http.StatusServiceUnavailable:
					var eb errorBody
					if err := json.Unmarshal(raw, &eb); err != nil || eb.Code == "" {
						t.Errorf("refusal %d with malformed body %q", hr.StatusCode, raw)
						return
					}
					if hr.StatusCode == http.StatusBadRequest && !malformed {
						if err := m.Check(q, dmcsref.Answer{Err: dmcsref.ErrInvalid}, from); err != nil {
							t.Errorf("%v (%s)", err, eb.Error)
							return
						}
					}
					refused.Add(1)
				default:
					t.Errorf("unexpected status %d: %s", hr.StatusCode, raw)
					return
				}
			}
		}(w)
	}

	// Mutator, the one writer: the model takes each batch before it is
	// sent, and once the request is over the engine's epoch says whether
	// it landed, whatever became of the response.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sb strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			ops := gen.Ops()
			sb.Reset()
			for _, op := range ops {
				fmt.Fprintln(&sb, op)
			}
			want := m.Apply(ops)
			hr, err := client.Post(ts.URL+"/apply", "text/plain", strings.NewReader(sb.String()))
			if err == nil {
				io.Copy(io.Discard, hr.Body)
				hr.Body.Close()
			}
			if eng.Epoch() == want {
				m.Ack(want)
			} else {
				m.Undo()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Chaos driver: rotates one armed injection at a time through every
	// point and directive class, with small Limits so service keeps
	// making progress between faults.
	wg.Add(1)
	go func() {
		defer wg.Done()
		storm := []struct {
			p   faultinject.Point
			inj faultinject.Injection
		}{
			{faultinject.EnginePeel, faultinject.Injection{Latency: 5 * time.Millisecond, Limit: 4}},
			{faultinject.EnginePeel, faultinject.Injection{Err: errors.New("chaos: injected peel error"), Limit: 2}},
			{faultinject.EnginePeel, faultinject.Injection{Panic: "chaos: injected peel panic", Limit: 2}},
			{faultinject.EngineSearch, faultinject.Injection{Err: errors.New("chaos: injected admission error"), Limit: 2}},
			{faultinject.EngineApply, faultinject.Injection{Latency: 8 * time.Millisecond, Limit: 2}},
			{faultinject.ServerDecode, faultinject.Injection{Err: errors.New("chaos: injected decode error"), Limit: 2}},
			{faultinject.ServerDecode, faultinject.Injection{Panic: "chaos: injected decode panic", Limit: 1}},
			{faultinject.ServerRespond, faultinject.Injection{Drop: true, Limit: 2}},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				faultinject.Reset()
				return
			default:
			}
			f := storm[i%len(storm)]
			faultinject.Set(f.p, f.inj)
			time.Sleep(7 * time.Millisecond)
			faultinject.Clear(f.p)
		}
	}()

	time.Sleep(duration)
	close(stop)
	waitOrDeadlock(t, &wg, 30*time.Second, "chaos workers")

	// Drain + shutdown must complete promptly — the no-deadlock check.
	s.StartDrain()
	if hr, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"nodes":[0]}`)); err == nil {
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("query during drain: %d, want 503", hr.StatusCode)
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}
	closed := make(chan struct{})
	go func() { ts.Close(); s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown deadlock: server close did not finish")
	}

	// Post-storm state check: with injections cleared, every island's
	// answer must be the model's at the epoch the storm left behind.
	faultinject.Reset()
	for c := 0; c < islands; c++ {
		q := dmcsref.Query{Nodes: []int{c * size}, Peel: dmcsref.Peel{Variant: "FPA", Pruning: true}}
		res, err := eng.Search(context.Background(), engine.Query{Nodes: []graph.Node{graph.Node(c * size)}, Opts: optsFPA()})
		if err != nil {
			t.Fatalf("post-storm query on island %d: %v", c, err)
		}
		ans := dmcsref.Answer{Score: res.Score}
		for _, u := range res.Community {
			ans.Community = append(ans.Community, int(u))
		}
		if err := m.Check(q, ans, m.Acked()); err != nil {
			t.Fatalf("post-storm state corrupted: %v", err)
		}
	}
	if complete.Load() == 0 {
		t.Error("storm produced zero verified complete answers — chaos drowned the service entirely")
	}
	t.Logf("chaos: %d complete (%d stale) / %d refused / %d transport faults; final state %v, epoch %d",
		complete.Load(), staleOK.Load(), refused.Load(), faulted.Load(), s.State(), eng.Epoch())
}

func sameResponse(resp queryResponse, want *dmcs.Result) bool {
	if resp.Score != want.Score || len(resp.Community) != len(want.Community) {
		return false
	}
	for i := range want.Community {
		if resp.Community[i] != want.Community[i] {
			return false
		}
	}
	return true
}

func waitOrDeadlock(t *testing.T, wg *sync.WaitGroup, timeout time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("deadlock: %s did not finish within %v", what, timeout)
	}
}
