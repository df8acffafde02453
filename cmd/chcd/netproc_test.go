// End-to-end multi-process test: build the real chcd binary, span one
// chain across two worker OS processes plus a coordinator over loopback
// TCP, then SIGKILL a worker mid-run and require the coordinator's
// node-level failover to recover every packet (Fig 4/6 across a real
// socket, per DESIGN.md §12).
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"chc/internal/runtime"
)

// freePorts reserves n distinct loopback ports by listening and closing.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

func TestMultiProcessFailoverReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and paces a wall-clock trace")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "chcd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build chcd: %v\n%s", err, out)
	}

	p := freePorts(t, 4)
	cfgPath := filepath.Join(dir, "fork-net.json")
	cfg := fmt.Sprintf(`{
  "vertices": [
    {"name": "nat", "nf": "nat", "instances": 2, "backend": "chc", "mode": "eocna"},
    {"name": "ids", "nf": "portscan", "backend": "chc", "mode": "eocna"},
    {"name": "lb", "nf": "lb", "instances": 2, "backend": "chc", "mode": "eocna"}
  ],
  "paths": [
    {"class": "tcp", "vertices": ["nat", "lb"]},
    {"class": "udp", "vertices": ["ids", "lb"]}
  ],
  "nodes": [
    {"name": "w1", "addr": "127.0.0.1:%d", "admin": "127.0.0.1:%d",
     "endpoints": ["root0", "sink", "store0", "driver", "framework", "v1", "v2", "v3"]},
    {"name": "w2", "addr": "127.0.0.1:%d", "admin": "127.0.0.1:%d",
     "endpoints": ["v1.i2"]}
  ]
}`, p[0], p[1], p[2], p[3])
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	w2Admin := fmt.Sprintf("127.0.0.1:%d", p[3])

	startWorker := func(node string) *exec.Cmd {
		cmd := exec.Command(bin, "worker", "-config", cfgPath, "-node", node)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %s: %v", node, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	startWorker("w1")
	w2 := startWorker("w2")

	reportPath := filepath.Join(dir, "report.json")
	coord := exec.Command(bin, "coordinator", "-config", cfgPath,
		"-flows", "2000", "-gbps", "1", "-json", reportPath)
	var coordOut strings.Builder
	coord.Stdout = &coordOut
	coord.Stderr = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	t.Cleanup(func() {
		coord.Process.Kill()
		coord.Wait()
	})

	// SIGKILL w2 once its instance is provably processing traffic: v1.i2
	// forwards every packet it handles across the socket back to w1, so a
	// rising sender-side RemoteMsgs means we are mid-stream, not pre-run.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			var ns struct {
				RemoteMsgs uint64 `json:"remote_msgs"`
			}
			resp, err := http.Get("http://" + w2Admin + "/netstats")
			if err == nil {
				json.NewDecoder(resp.Body).Decode(&ns)
				resp.Body.Close()
				if ns.RemoteMsgs > 500 {
					w2.Process.Signal(syscall.SIGKILL)
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("coordinator did not finish\n%s", coordOut.String())
	}
	<-killed

	if !strings.Contains(coordOut.String(), "worker w2 died") {
		t.Fatalf("coordinator never detected the killed worker:\n%s", coordOut.String())
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var rep struct {
		Injected    uint64               `json:"injected"`
		Deleted     uint64               `json:"deleted"`
		LogResidue  uint64               `json:"log_residue"`
		Stuck       []runtime.StuckClock `json:"stuck"`
		SinkDups    uint64               `json:"sink_duplicates"`
		RemoteMsgs  uint64               `json:"remote_msgs"`
		RemoteBytes uint64               `json:"remote_bytes"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse report: %v\n%s", err, raw)
	}
	if rep.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if rep.Deleted != rep.Injected || rep.LogResidue != 0 {
		for _, s := range rep.Stuck {
			t.Logf("stuck %v", s)
		}
		t.Errorf("conservation violated after node failover: injected=%d deleted=%d residue=%d",
			rep.Injected, rep.Deleted, rep.LogResidue)
	}
	if rep.SinkDups != 0 {
		t.Errorf("sink saw %d duplicates", rep.SinkDups)
	}
	if rep.RemoteMsgs == 0 {
		t.Errorf("run never crossed a socket: remote_msgs=0 (bytes=%d)", rep.RemoteBytes)
	}
}
