// Kill-crash recovery against the model (internal/dmcsref): a dmcsd
// child with a data directory is SIGKILLed at randomized points under
// live apply + query traffic and restarted, and its recovered state image
// is held to the model's rule 3 — the durability contract:
//
//   - no lost acknowledged Apply: the recovered epoch is at least the
//     last epoch a client saw a 200 for;
//   - no partially merged batch: the recovered state is the model's at
//     the recovered epoch, bit for bit, and a half-applied batch matches
//     no epoch;
//   - torn tails truncated, not mis-replayed: every restart recovers or
//     the test fails loudly; iterations accumulate in ONE data
//     directory, so each recovery builds on the previous crash's.
//
// Every complete query answer the children return is held to rules 1
// and 2 on the way.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmcs/internal/dmcsref"
	"dmcs/internal/dmcsref/refstate"
)

// binPath is the dmcsd binary TestMain builds once for every test in
// this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dmcsd-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "dmcsd")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building dmcsd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// seedGraphFile writes the generator's starting graph as an edge list,
// whose edges introduce the nodes in ascending order, so node labels
// equal node ids.
func seedGraphFile(t *testing.T, gen *dmcsref.Gen) string {
	t.Helper()
	var sb strings.Builder
	_, edges := gen.Graph()
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	path := filepath.Join(t.TempDir(), "seed.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// child is one running dmcsd process.
type child struct {
	cmd  *exec.Cmd
	addr string
}

var servingRE = regexp.MustCompile(`dmcsd: serving .* on (\S+) \(`)

// startChild boots dmcsd on a random port against dataDir and waits for
// its serving line (recovery happens before the listener binds, so a
// reachable child has already recovered).
func startChild(t *testing.T, graphFile, dataDir string) *child {
	t.Helper()
	cmd := exec.Command(binPath,
		"-graph", graphFile,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "interval",
		"-fsync-interval", "2ms",
		"-checkpoint-every", "8",
		"-wal-segment-bytes", "4096",
		"-state-dump",
		"-workers", "2",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var acc []byte
		sent := false
		for {
			n, err := stdout.Read(buf)
			if n > 0 && !sent {
				acc = append(acc, buf[:n]...)
				if m := servingRE.FindSubmatch(acc); m != nil {
					addrCh <- string(m[1])
					sent = true
					acc = nil
				}
			}
			if err != nil {
				if !sent {
					close(addrCh)
				}
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("dmcsd exited before its serving line (recovery failed?)")
		}
		return &child{cmd: cmd, addr: addr}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("dmcsd never printed its serving line")
		return nil
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

func killCrashIters() int {
	if s := os.Getenv("KILLCRASH_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 6
	}
	return 50
}

func TestKillCrashRecovery(t *testing.T) {
	const islands, size = 3, 8
	gen := dmcsref.NewGen(0xbeef, islands, size)
	graphFile := seedGraphFile(t, gen)
	m := dmcsref.NewModel(gen.Graph())
	dataDir := filepath.Join(t.TempDir(), "data")
	rng := rand.New(rand.NewSource(0x5eed))
	client := &http.Client{Timeout: 5 * time.Second}

	c := startChild(t, graphFile, dataDir)
	defer func() { c.kill() }()

	iters := killCrashIters()
	for it := 0; it < iters; it++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup

		// Query traffic: read-side load racing the applies and the kill,
		// every complete answer held to the model.
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			qgen := dmcsref.NewGen(int64(it), islands, size)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := qgen.Query()
				q.Peel = dmcsref.Peel{Variant: q.Peel.Variant, Pruning: q.Peel.Variant == "FPA"}
				nodes, _ := json.Marshal(q.Nodes)
				from := m.Acked()
				resp, err := client.Post("http://"+addr+"/query", "application/json",
					strings.NewReader(fmt.Sprintf(`{"nodes":%s,"variant":%q}`, nodes, q.Peel.Variant)))
				if err != nil {
					return // child died mid-request: expected
				}
				var ans struct {
					Community []int   `json:"community"`
					Score     float64 `json:"score"`
					TimedOut  bool    `json:"timed_out"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ans)
				resp.Body.Close()
				switch {
				case err != nil:
					return // torn by the kill
				case resp.StatusCode == http.StatusOK && !ans.TimedOut:
					err = m.Check(q, dmcsref.Answer{Community: ans.Community, Score: ans.Score}, from)
				case resp.StatusCode == http.StatusBadRequest:
					err = m.Check(q, dmcsref.Answer{Err: dmcsref.ErrInvalid}, from)
				}
				if err != nil {
					t.Errorf("iter %d: %v", it, err)
					return
				}
			}
		}(c.addr)

		// Sequential mutator, the one writer: the model takes each batch
		// BEFORE it is sent, so a batch the server applied but never
		// acknowledged (killed while responding) is in the model too.
		wg.Add(1)
		go func(addr string) {
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
				resp, err := client.Post("http://"+addr+"/apply", "text/plain", strings.NewReader(sb.String()))
				if err != nil {
					return // child died mid-request: the unacked-tail case
				}
				var ack struct {
					Epoch uint64 `json:"epoch"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					if ack.Epoch != want {
						t.Errorf("iter %d: apply acknowledged epoch %d, model at %d", it, ack.Epoch, want)
						return
					}
					m.Ack(ack.Epoch)
				}
			}
		}(c.addr)

		// Let traffic run, then pull the plug at a random point.
		time.Sleep(time.Duration(30+rng.Intn(120)) * time.Millisecond)
		c.kill()
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}

		// Restart on the same directory and hold the recovered state to
		// the model. /stats must report the durability block and the
		// epoch of the image /debug/state serves.
		c = startChild(t, graphFile, dataDir)
		resp, err := client.Get("http://" + c.addr + "/stats")
		if err != nil {
			t.Fatalf("iter %d: stats after recovery: %v", it, err)
		}
		var stats struct {
			Server struct {
				Epoch uint64 `json:"epoch"`
			} `json:"server"`
			Durable *struct {
				DurableEpoch uint64 `json:"durable_epoch"`
			} `json:"durable"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("iter %d: decode stats: %v", it, err)
		}
		if stats.Durable == nil {
			t.Fatalf("iter %d: recovered server reports no durability block", it)
		}
		resp, err = client.Get("http://" + c.addr + "/debug/state")
		if err != nil {
			t.Fatalf("iter %d: state dump: %v", it, err)
		}
		dump, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("iter %d: read state dump: %v", it, err)
		}
		st, err := refstate.Decode(dump)
		if err != nil {
			t.Fatalf("iter %d: decode state dump: %v", it, err)
		}
		if stats.Server.Epoch != st.Epoch {
			t.Fatalf("iter %d: /stats reports epoch %d, the state image %d", it, stats.Server.Epoch, st.Epoch)
		}
		if err := m.Recovered(st); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
	}
}
