// chcd worker: host one node's share of a multi-process chain.
//
// Every worker builds the IDENTICAL chain from the shared config (same
// instance IDs, partition map and topology — the deployment is SPMD), but
// only the components homed on -node actually spawn here; traffic to and
// from components on other nodes crosses real TCP through the wire codec.
// Control verbs arriving over the admin API are likewise executed by
// every worker, with node-gated effectors ensuring each side effect
// happens exactly once cluster-wide.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"chc/internal/runtime"
)

func workerMain(args []string) {
	fs := flag.NewFlagSet("chcd worker", flag.ExitOnError)
	cfgPath := fs.String("config", "", "chain config JSON with a \"nodes\" section (required)")
	node := fs.String("node", "", "node name this process hosts (required)")
	adminAddr := fs.String("admin", "", "admin API address (overrides the node's \"admin\" in the config)")
	ct := addChainTuning(fs)
	fs.Parse(args)

	cfg := loadConfig(*cfgPath)
	if len(cfg.Nodes) == 0 {
		fatal(fmt.Errorf("config has no nodes section (worker mode needs one)"))
	}
	if *node == "" {
		fatal(fmt.Errorf("-node is required"))
	}
	admin := *adminAddr
	if admin == "" {
		admin = cfg.adminOf(*node)
	}
	if admin == "" {
		fatal(fmt.Errorf("node %q has no admin address (set \"admin\" in the config or pass -admin)", *node))
	}

	ccfg := runtime.NetChainConfig(cfg.nodeSpecs(), *node)
	ct.apply(cfg, &ccfg)
	ch := buildChain(cfg, ccfg)
	fmt.Printf("worker %s: chain up (%d vertices, %d shards), netnet listening, admin on %s\n",
		*node, len(ch.Vertices), len(ch.Stores), admin)

	startWorkerAdmin(admin, ch, *node)
	select {} // serve until killed (the coordinator or operator owns our lifetime)
}

// startWorkerAdmin serves the admin API (adminMux) plus POST /run, which
// only the root-owner node accepts.
func startWorkerAdmin(addr string, ch *runtime.Chain, node string) {
	mux := adminMux(ch, node)
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		var req workerRunReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		report, err := workerRun(ch, req)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, report)
	})
	serveAdmin(addr, mux)
}

// workerRunReq parameterizes the trace a /run verb offers to the chain.
type workerRunReq struct {
	Flows    int     `json:"flows"`
	Gbps     int64   `json:"gbps"`
	UDPFrac  float64 `json:"udp_frac"`
	SettleMs int     `json:"settle_ms"`
	DrainSec int     `json:"drain_sec"`
}

// workerRun paces a generated trace through the chain and reports. Only
// the node hosting the root can inject (the pacer feeds the root
// directly), so other nodes reject the verb — the coordinator sends it to
// the root owner. Single-shot: the chain is stopped after the run so the
// report's counters are stable.
func workerRun(ch *runtime.Chain, req workerRunReq) (*runReport, error) {
	if !ch.OwnsEndpoint(ch.Root.Endpoint) {
		return nil, fmt.Errorf("this node does not host the root; send /run to its owner")
	}
	if req.Flows <= 0 {
		req.Flows = 300
	}
	if req.Gbps <= 0 {
		req.Gbps = 2
	}
	if req.SettleMs <= 0 {
		req.SettleMs = 200
	}
	if req.DrainSec <= 0 {
		req.DrainSec = 30
	}
	tt := traceTuning{
		tracePath: new(string), flows: &req.Flows, gbps: &req.Gbps,
		udpFrac: &req.UDPFrac, settle: new(time.Duration),
	}
	tr := tt.load(ch.Config().Seed)
	elapsed := ch.RunTrace(tr, time.Duration(req.SettleMs)*time.Millisecond)
	drained := ch.AwaitDrained(time.Duration(req.DrainSec) * time.Second)
	if !drained {
		fmt.Fprintln(os.Stderr, "chcd worker: warning: chain did not fully drain")
	}
	ch.Stop()
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1
	}
	report := makeReport(ch, ch.Controller().Status(), "net", secs, tr.Len())
	return &report, nil
}
