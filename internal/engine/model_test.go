package engine

// The engine held to the model (internal/dmcsref). A seeded sequence of
// applies, queries, batches, stale lookups, checkpoints, crashes and
// recoveries runs serially on a durable engine, so the model's four rules
// hold exactly: every complete answer is the model's at the current
// versions, stale is set iff the version is superseded, every state image
// is the model's (a recovered one at the acknowledged epoch), and a repeated
// query on an untouched component is a cache hit; where the cache holds
// every answer, a stale one also comes from the newest superseded version
// the query was answered at. A concurrent phase
// follows: one writer applies while readers search, batch, look up stale
// answers and read Stats, each answer held to the versions of the epochs
// it may have seen. Under -race that is also the engine's swap, cache,
// stats and singleflight race test. Last, two writers race each other,
// and the model replays their batches in the order of the epochs the
// engine gave them. The three engine configurations vary the worker
// count and the cache (large, off, evicting); the first runs on 48
// islands, which span three CSR pages, so bridges and merges cross pages.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dmcs/internal/dmcs"
	"dmcs/internal/dmcsref"
	"dmcs/internal/dmcsref/refstate"
	"dmcs/internal/faultinject"
	"dmcs/internal/graph"
	"dmcs/internal/wal"
)

func TestEngineAgainstModel(t *testing.T) {
	steps, writes := 600, 150
	if testing.Short() {
		steps, writes = 250, 60
	}
	const size = 12
	for ci, c := range []struct {
		name    string
		islands int
		opts    Options
		hits    bool // the cache holds every answer: rule 4, and rule 2 in full, apply
	}{
		{"cached", 48, Options{Workers: 2, CacheSize: 1 << 14, StaleRetention: 8}, true},
		{"uncached", 6, Options{Workers: 4, CacheSize: -1}, false},
		{"evicting", 6, Options{Workers: 1, CacheSize: 8, StaleRetention: 2}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer faultinject.Reset()
			seed := int64(100 + ci)
			gen := dmcsref.NewGen(seed, c.islands, size)
			m := dmcsref.NewModel(gen.Graph())
			wopts := wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways}
			e, _, err := OpenDurable(refstate.Graph(gen.Graph()), wopts, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.CloseWAL() }()
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			check(refstate.Check(m.Recovered, e.EncodeState(nil)))
			ctx := context.Background()
			var st dmcsref.Step
			for i := 0; i < steps || st.Kind == dmcsref.StepCrash; i++ {
				st = gen.Next()
				switch st.Kind {
				case dmcsref.StepApply:
					check(applyBoth(e, m, st.Ops))
					check(refstate.Check(m.CheckState, e.EncodeState(nil)))
				case dmcsref.StepQuery:
					q := st.Queries[0]
					hits := e.Stats().CacheHits
					ans, complete, err := search(ctx, e, m, q, m.Acked())
					check(err)
					if complete && c.hits {
						check(m.CheckHit(q, ans, e.Stats().CacheHits > hits))
					}
				case dmcsref.StepBatch:
					check(searchBatch(ctx, e, m, st.Queries))
				case dmcsref.StepStale:
					check(lookupStale(e, m, st.Queries[0]))
				case dmcsref.StepCheckpoint:
					_, err := e.Checkpoint()
					check(err)
				case dmcsref.StepCrash:
					// Every other crash tears the append of the batch in
					// flight; the rest leave a log that ends cleanly.
					if i%2 == 0 {
						faultinject.Set(faultinject.WALAppend, faultinject.Injection{Err: wal.ErrTornWrite, Limit: 1})
						if as, err := e.Apply(engineBatch(st.Ops)); err == nil {
							// Nothing to append: the batch changed nothing.
							if want := m.Apply(st.Ops); as.Epoch != want {
								t.Fatalf("ineffective batch left the engine at epoch %d, the model at %d", as.Epoch, want)
							}
						}
						faultinject.Clear(faultinject.WALAppend)
					}
					e.CloseWAL()
				case dmcsref.StepRecover:
					e, _, err = OpenDurable(nil, wopts, c.opts)
					check(err)
					check(refstate.Check(m.Recovered, e.EncodeState(nil)))
				}
			}

			// Concurrent phase: readers race one writer.
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					gen := dmcsref.NewGen(seed, c.islands, size)
					for i := 0; i < 2*writes; i++ {
						q, from := gen.Query(), m.Acked()
						var err error
						switch i % 4 {
						case 0:
							_, _, err = search(ctx, e, m, q, from)
						case 1:
							err = searchBatch(ctx, e, m, gen.Batch())
						case 2:
							err = lookupStale(e, m, q)
						case 3:
							_ = e.Stats()
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(seed*10 + int64(r))
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < writes && !t.Failed(); i++ {
				if err := applyBoth(e, m, gen.Ops()); err != nil {
					t.Error(err)
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Two writers race: each batch ends in a weight no batch used
			// before, so every batch takes an epoch of its own, and replayed
			// in epoch order the model must land on the engine's state.
			type applied struct {
				ep  uint64
				ops []dmcsref.Op
			}
			logs := make([][]applied, 2)
			for w := range logs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					gen := dmcsref.NewGen(seed*10+int64(3+w), c.islands, size)
					for i := 0; i < writes/2; i++ {
						ops := append(gen.Ops(), dmcsref.Op{Kind: dmcsref.SetWeight, U: w, V: w + 1, W: float64(4 + 2*i + w)})
						st, err := e.Apply(engineBatch(ops))
						if err != nil {
							t.Error(err)
							return
						}
						logs[w] = append(logs[w], applied{st.Epoch, ops})
					}
				}(w)
			}
			wg.Wait()
			all := append(logs[0], logs[1]...)
			slices.SortFunc(all, func(a, b applied) int { return cmp.Compare(a.ep, b.ep) })
			for _, a := range all {
				if ep := m.Apply(a.ops); ep != a.ep {
					t.Fatalf("concurrent apply %v: engine at epoch %d, model at %d in epoch order", a.ops, a.ep, ep)
				}
			}
			check(refstate.Check(m.CheckState, e.EncodeState(nil)))
		})
	}
}

// applyBoth applies ops to the model, then to the engine, and
// acknowledges the epoch the engine reports once it is the model's.
func applyBoth(e *Engine, m *dmcsref.Model, ops []dmcsref.Op) error {
	want := m.Apply(ops)
	st, err := e.Apply(engineBatch(ops))
	if err != nil {
		return err
	}
	if st.Epoch != want {
		return fmt.Errorf("apply %v: engine at epoch %d, model at %d", ops, st.Epoch, want)
	}
	m.Ack(st.Epoch)
	return nil
}

// search runs q through Search and holds a complete answer to the model,
// which it returns with whether it was complete.
func search(ctx context.Context, e *Engine, m *dmcsref.Model, q dmcsref.Query, from uint64) (dmcsref.Answer, bool, error) {
	res, err := e.Search(ctx, engineQuery(q))
	ans, complete, err := answerOf(q, res, err)
	if err == nil && complete {
		err = m.Check(q, ans, from)
	}
	return ans, complete, err
}

// searchBatch runs qs as one SearchBatch and checks every complete answer.
func searchBatch(ctx context.Context, e *Engine, m *dmcsref.Model, qs []dmcsref.Query) error {
	eqs := make([]Query, len(qs))
	for i, q := range qs {
		eqs[i] = engineQuery(q)
	}
	from := m.Acked()
	for i, br := range e.SearchBatch(ctx, eqs) {
		ans, complete, err := answerOf(qs[i], br.Result, br.Err)
		if err == nil && complete {
			err = m.Check(qs[i], ans, from)
		}
		if err != nil {
			return fmt.Errorf("batch query %d of %d: %v", i, len(qs), err)
		}
	}
	return nil
}

// lookupStale checks one LookupStale hit, which reports its version.
func lookupStale(e *Engine, m *dmcsref.Model, q dmcsref.Query) error {
	from := m.Acked()
	res, ver, stale, ok := e.LookupStale(engineQuery(q), 8)
	if !ok {
		return nil
	}
	ans, _, _ := answerOf(q, res, nil)
	ans.Versioned, ans.Stale, ans.Version = true, stale, ver
	return m.Check(q, ans, from)
}

// answerOf translates one engine answer to q. complete is false for a
// deadline query's timed-out partial or queue timeout, which no rule
// covers; any other error but a refusal is returned as err.
func answerOf(q dmcsref.Query, res *dmcs.Result, err error) (ans dmcsref.Answer, complete bool, _ error) {
	switch {
	case errors.Is(err, dmcs.ErrEmptyQuery):
		return dmcsref.Answer{Err: dmcsref.ErrEmpty}, true, nil
	case errors.Is(err, ErrNodeOutOfRange):
		return dmcsref.Answer{Err: dmcsref.ErrRange}, true, nil
	case errors.Is(err, dmcs.ErrDisconnected):
		return dmcsref.Answer{Err: dmcsref.ErrDisconnected}, true, nil
	case q.Deadline && errors.Is(err, ErrQueueTimeout):
		return ans, false, nil
	case err != nil:
		return ans, false, fmt.Errorf("query %v: %v", q.Nodes, err)
	case res.TimedOut && !q.Deadline:
		return ans, false, fmt.Errorf("query %v has no deadline but returned a timed-out partial", q.Nodes)
	}
	for _, u := range res.Community {
		ans.Community = append(ans.Community, int(u))
	}
	ans.Score = res.Score
	return ans, !res.TimedOut, nil
}

// engineQuery translates a generated query; a deadline is 1ns, which has
// always run out by a peel's first deadline poll.
func engineQuery(q dmcsref.Query) Query {
	eq := Query{Opts: dmcs.Options{LayerPruning: q.Peel.Pruning, Objective: dmcs.Objective(q.Peel.Objective), Chi: q.Peel.Chi}}
	for _, u := range q.Nodes {
		eq.Nodes = append(eq.Nodes, graph.Node(u))
	}
	for eq.Variant.String() != q.Peel.Variant {
		eq.Variant++
	}
	if q.Deadline {
		eq.Opts.Timeout = time.Nanosecond
	}
	return eq
}

func engineBatch(ops []dmcsref.Op) Batch {
	var b Batch
	for _, op := range ops {
		u, v := graph.Node(op.U), graph.Node(op.V)
		switch op.Kind {
		case dmcsref.AddEdge:
			b.AddEdge(u, v)
		case dmcsref.SetWeight:
			b.SetWeight(u, v, op.W)
		case dmcsref.RemoveEdge:
			b.RemoveEdge(u, v)
		case dmcsref.AddNode:
			b.AddNode(u)
		}
	}
	return b
}
