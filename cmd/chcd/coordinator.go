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
	"io"
	"net/http"
	"os"
	"time"

	"chc/internal/netnet"
	"chc/internal/transport"
)

// coordinatorCmd holds the coordinator role's flags.
type coordinatorCmd struct {
	config, spec, jsonPath string
	offer                  offer
	upTimeout              time.Duration
}

func (c *coordinatorCmd) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("chcd coordinator", flag.ExitOnError)
	fs.StringVar(&c.config, "config", "", "chain config JSON with a \"nodes\" section (required)")
	fs.StringVar(&c.spec, "spec", "", "DeploymentSpec JSON to broadcast to every worker before the run")
	c.offer.register(fs)
	fs.DurationVar(&c.upTimeout, "up-timeout", 30*time.Second, "how long to wait for all workers' /health")
	fs.StringVar(&c.jsonPath, "json", "-", "write the run report to this path (- for stdout)")
	return fs
}

func coordinatorMain(args []string) {
	c := &coordinatorCmd{}
	c.flags().Parse(args)

	cfg := loadConfig(c.config)
	if len(cfg.Nodes) == 0 {
		fatal(fmt.Errorf("config has no nodes section (coordinator mode needs one)"))
	}
	nm := transport.NewNodeMap(cfg.nodeSpecs())
	rootNode := nm.NodeOf("root0")
	if cfg.adminOf(rootNode) == "" {
		fatal(fmt.Errorf("root-owner node %q has no admin address", rootNode))
	}

	// Phase 1: wait for every worker.
	deadline := time.Now().Add(c.upTimeout)
	for _, n := range cfg.Nodes {
		for {
			if err := getJSON(n.Admin, "/health", nil); err == nil {
				break
			} else if time.Now().After(deadline) {
				fatal(fmt.Errorf("worker %s (%s) not healthy within %v: %v", n.Name, n.Admin, c.upTimeout, err))
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("coordinator: %d workers healthy, root on %s\n", len(cfg.Nodes), rootNode)

	// Phase 2: reconcile the declared spec on every worker (SPMD: each
	// applies the same mutations; node-gated effectors keep side effects
	// exactly-once cluster-wide).
	if c.spec != "" {
		raw, err := os.ReadFile(c.spec)
		if err != nil {
			fatal(err)
		}
		for _, n := range cfg.Nodes {
			if err := postJSON(n.Admin, "/spec", json.RawMessage(raw), nil); err != nil {
				fatal(fmt.Errorf("apply spec on %s: %w", n.Name, err))
			}
		}
		fmt.Printf("coordinator: spec applied on all %d workers\n", len(cfg.Nodes))
	}

	// Phase 3: run on the root owner while watching everyone's health.
	reportCh := make(chan *runReport, 1)
	errCh := make(chan error, 1)
	go func() {
		var rep runReport
		if err := postJSON(cfg.adminOf(rootNode), "/run", c.offer, &rep); err != nil {
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

	writeReport(c.jsonPath, *report)
	fmt.Printf("coordinator: run complete: injected=%d deleted=%d residue=%d dups=%d remote_msgs=%d remote_calls=%d\n",
		report.Injected, report.Deleted, report.LogResidue, report.SinkDups,
		report.RemoteMsgs, report.RemoteCalls)
}

// failoverNode broadcasts a failover verb for every instance endpoint the
// dead node declared (entries of the form "vV.iI") to all surviving
// workers, re-homing each replacement onto rehome. Every survivor must
// see every verb in the same order (SPMD mutation history).
func failoverNode(cfg *config, deadNode nodeJSON, rehome string, dead map[string]bool) {
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
	resp, err := adminClient.Post("http://"+host+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s%s: %s: %s", host, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
