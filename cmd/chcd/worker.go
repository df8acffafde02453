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
	"io"
	"net/http"
	"os"

	"chc/internal/runtime"
)

// workerCmd holds the worker role's flags.
type workerCmd struct {
	config, node, admin string
	chain               chainTuning
}

func (c *workerCmd) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("chcd worker", flag.ExitOnError)
	fs.StringVar(&c.config, "config", "", "chain config JSON with a \"nodes\" section (required)")
	fs.StringVar(&c.node, "node", "", "node name this process hosts (required)")
	fs.StringVar(&c.admin, "admin", "", "admin API address (overrides the node's \"admin\" in the config)")
	c.chain.register(fs)
	return fs
}

func workerMain(args []string) {
	c := &workerCmd{}
	c.flags().Parse(args)

	cfg := loadConfig(c.config)
	if len(cfg.Nodes) == 0 {
		fatal(fmt.Errorf("config has no nodes section (worker mode needs one)"))
	}
	if c.node == "" {
		fatal(fmt.Errorf("-node is required"))
	}
	admin := c.admin
	if admin == "" {
		admin = cfg.adminOf(c.node)
	}
	if admin == "" {
		fatal(fmt.Errorf("node %q has no admin address (set \"admin\" in the config or pass -admin)", c.node))
	}

	ch := buildChain(cfg, c.chain, runtime.NetChainConfig(cfg.nodeSpecs(), c.node))
	fmt.Printf("worker %s: chain up (%d vertices, %d shards), netnet listening, admin on %s\n",
		c.node, len(ch.Vertices), len(ch.Stores), admin)

	startWorkerAdmin(admin, ch, c.node)
	select {} // serve until killed (the coordinator or operator owns our lifetime)
}

// startWorkerAdmin serves the admin API (adminMux) plus POST /run, which
// only the root-owner node accepts.
func startWorkerAdmin(addr string, ch *runtime.Chain, node string) {
	mux := adminMux(ch, node)
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		o, err := decodeOffer(r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		report, err := workerRun(ch, o)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, report)
	})
	serveAdmin(addr, mux)
}

// decodeOffer reads a POST /run body over the offer defaults, so a field
// the body leaves out keeps its default.
func decodeOffer(r io.Reader) (offer, error) {
	o := defaultOffer()
	err := json.NewDecoder(r).Decode(&o)
	return o, err
}

// workerRun paces the offered trace through the chain and reports. Only
// the node hosting the root can inject (the pacer feeds the root
// directly), so other nodes reject the verb — the coordinator sends it to
// the root owner. Single-shot: the chain is stopped after the run so the
// report's counters are stable.
func workerRun(ch *runtime.Chain, o offer) (*runReport, error) {
	if !ch.OwnsEndpoint(ch.Root.Endpoint) {
		return nil, fmt.Errorf("this node does not host the root; send /run to its owner")
	}
	tr := o.trace(ch.Config().Seed)
	elapsed := ch.RunTrace(tr, o.Settle)
	if !ch.AwaitDrained(drainBudget) {
		fmt.Fprintln(os.Stderr, "chcd worker: warning: chain did not fully drain")
	}
	ch.Stop()
	report := makeReport(ch, ch.Controller().Status(), "net", elapsed, tr.Len())
	return &report, nil
}
