// chcd coordinator: drive a multi-process deployment's workers.
//
// The coordinator owns the deployment's control plane from the outside:
// it waits for every worker's admin API to come up, optionally broadcasts
// a DeploymentSpec, starts the run on the root-owner worker, and watches
// worker health while the run is in flight. When a worker dies mid-run
// (crash, SIGKILL, OOM), the coordinator broadcasts failover verbs for
// every instance the dead node hosted to the survivors — re-homing the
// replacements onto the root owner's node — which is exactly the paper's
// §5.4 NF-failover story executed across real process boundaries.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"chc/internal/netnet"
	"chc/internal/transport"
)

func coordinatorMain(args []string) {
	fs := flag.NewFlagSet("chcd coordinator", flag.ExitOnError)
	cfgPath := fs.String("config", "", "chain config JSON with a \"nodes\" section (required)")
	specPath := fs.String("spec", "", "DeploymentSpec JSON to broadcast to every worker before the run")
	flows := fs.Int("flows", 300, "generated trace connections")
	gbps := fs.Int64("gbps", 2, "offered load in Gbps")
	udpFrac := fs.Float64("udp-frac", 0, "fraction of generated flows as UDP")
	settleMs := fs.Int("settle-ms", 200, "post-trace settle time (ms) on the root owner")
	drainSec := fs.Int("drain-sec", 30, "drain budget (s) on the root owner")
	upTimeout := fs.Duration("up-timeout", 30*time.Second, "how long to wait for all workers' /health")
	jsonPath := fs.String("json", "", "write the run report to this path (- for stdout)")
	fs.Parse(args)

	cfg := loadConfig(*cfgPath)
	if len(cfg.Nodes) == 0 {
		fatal(fmt.Errorf("config has no nodes section (coordinator mode needs one)"))
	}
	nm := transport.NewNodeMap(cfg.nodeSpecs())
	rootNode := nm.NodeOf("root0")
	if cfg.adminOf(rootNode) == "" {
		fatal(fmt.Errorf("root-owner node %q has no admin address", rootNode))
	}

	// Phase 1: wait for every worker.
	deadline := time.Now().Add(*upTimeout)
	for _, n := range cfg.Nodes {
		for {
			if err := getJSON(n.Admin, "/health", nil); err == nil {
				break
			} else if time.Now().After(deadline) {
				fatal(fmt.Errorf("worker %s (%s) not healthy within %v: %v", n.Name, n.Admin, *upTimeout, err))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("coordinator: %d workers healthy, root on %s\n", len(cfg.Nodes), rootNode)

	// Phase 2: reconcile the declared spec on every worker (SPMD: each
	// applies the same mutations; node-gated effectors keep side effects
	// exactly-once cluster-wide).
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		for _, n := range cfg.Nodes {
			if err := postJSONRaw(n.Admin, "/spec", raw, nil); err != nil {
				fatal(fmt.Errorf("apply spec on %s: %w", n.Name, err))
			}
		}
		fmt.Printf("coordinator: spec applied on all %d workers\n", len(cfg.Nodes))
	}

	// Phase 3: run on the root owner while watching everyone's health.
	runReq := workerRunReq{Flows: *flows, Gbps: *gbps, UDPFrac: *udpFrac,
		SettleMs: *settleMs, DrainSec: *drainSec}
	reportCh := make(chan *runReport, 1)
	errCh := make(chan error, 1)
	go func() {
		var rep runReport
		if err := postJSON(cfg.adminOf(rootNode), "/run", runReq, &rep); err != nil {
			errCh <- err
			return
		}
		reportCh <- &rep
	}()

	dead := map[string]bool{}
	var report *runReport
watch:
	for {
		select {
		case report = <-reportCh:
			break watch
		case err := <-errCh:
			fatal(fmt.Errorf("run on %s: %w", rootNode, err))
		case <-time.After(250 * time.Millisecond):
			for _, n := range cfg.Nodes {
				if dead[n.Name] || n.Name == rootNode {
					continue
				}
				if err := getJSON(n.Admin, "/health", nil); err != nil {
					dead[n.Name] = true
					fmt.Printf("coordinator: worker %s died (%v); failing its instances over to %s\n",
						n.Name, err, rootNode)
					failoverNode(cfg, n, rootNode, dead)
				}
			}
		}
	}

	// Fold the surviving non-root workers' sender-side net counters into the
	// report: the root owner only sees its own outbound frames, but e.g. a
	// remote instance's store RPCs originate on ITS node.
	for _, n := range cfg.Nodes {
		if dead[n.Name] || n.Name == rootNode {
			continue
		}
		var ns netnet.NetStats
		if err := getJSON(n.Admin, "/netstats", &ns); err != nil {
			fmt.Fprintf(os.Stderr, "chcd coordinator: netstats from %s: %v\n", n.Name, err)
			continue
		}
		report.RemoteMsgs += ns.RemoteMsgs
		report.RemoteCalls += ns.RemoteCalls
		report.RemoteBytes += ns.RemoteBytes
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *jsonPath == "-" || *jsonPath == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator: run complete: injected=%d deleted=%d residue=%d dups=%d remote_msgs=%d remote_calls=%d\n",
		report.Injected, report.Deleted, report.LogResidue, report.SinkDups,
		report.RemoteMsgs, report.RemoteCalls)
}

// failoverNode broadcasts a failover verb for every instance endpoint the
// dead node declared (entries of the form "vV.iI") to all surviving
// workers, re-homing each replacement onto rehome. Every survivor must
// see every verb in the same order (SPMD mutation history).
func failoverNode(cfg configJSON, deadNode nodeJSON, rehome string, dead map[string]bool) {
	for _, ep := range deadNode.Endpoints {
		var v, i int
		if n, _ := fmt.Sscanf(ep, "v%d.i%d", &v, &i); n != 2 {
			continue // a prefix or framework endpoint, not an instance
		}
		req := failoverReq{Instance: uint16(i), Rehome: rehome}
		for _, n := range cfg.Nodes {
			if dead[n.Name] || n.Name == deadNode.Name {
				continue
			}
			if err := postJSON(n.Admin, "/failover", req, nil); err != nil {
				fmt.Fprintf(os.Stderr, "chcd coordinator: failover of %s on %s: %v\n", ep, n.Name, err)
			}
		}
	}
}

// --- small HTTP JSON helpers (admin API client) ------------------------------

var adminClient = &http.Client{Timeout: 10 * time.Minute}

func getJSON(host, path string, out any) error {
	resp, err := adminClient.Get("http://" + host + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s%s: %s", host, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postJSON(host, path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return postJSONRaw(host, path, raw, out)
}

func postJSONRaw(host, path string, raw []byte, out any) error {
	resp, err := adminClient.Post("http://"+host+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := readAllLimited(resp)
		return fmt.Errorf("%s%s: %s: %s", host, path, resp.Status, strings.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func readAllLimited(resp *http.Response) (string, error) {
	buf := make([]byte, 4096)
	n, err := resp.Body.Read(buf)
	return string(buf[:n]), err
}
