// chcd admin API: one HTTP JSON mux for `chcd run -live -admin` and
// `chcd worker`.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"chc/internal/runtime"
)

// failoverReq is the admin failover verb: replace instance ID with a
// fresh one. Rehome, when set, re-homes the REPLACEMENT's endpoint to the
// named node before the failover runs, so the new instance spawns there —
// the node-level recovery path after a worker dies. Every worker must
// receive the same verb (SPMD); each computes the same replacement ID and
// endpoint, so the re-homing and the splitter redirect agree everywhere
// while only the new home starts the instance and requests root replay.
type failoverReq struct {
	Instance uint16 `json:"instance"`
	Rehome   string `json:"rehome"`
}

// adminMux builds the admin API both modes serve: GET /health, the
// controller's GET /spec, GET /status, POST /spec and POST
// /drain/{vertex}, GET /netstats and POST /failover. node is the name
// /health reports (empty for a single-process run); the worker adds POST
// /run to the returned mux.
func adminMux(ch *runtime.Chain, node string) *http.ServeMux {
	ctl := ch.Controller()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"node": node, "ok": true})
	})
	mux.HandleFunc("GET /spec", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ctl.CurrentSpec())
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ctl.Status())
	})
	mux.HandleFunc("POST /spec", func(w http.ResponseWriter, r *http.Request) {
		var spec runtime.DeploymentSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		actions, err := ctl.ApplySpec(spec)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"applied": true, "actions": actions})
	})
	mux.HandleFunc("POST /drain/{vertex}", func(w http.ResponseWriter, r *http.Request) {
		actions, err := ctl.Drain(r.PathValue("vertex"))
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"drained": true, "actions": actions})
	})
	mux.HandleFunc("GET /netstats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ch.NetStats())
	})
	mux.HandleFunc("POST /failover", func(w http.ResponseWriter, r *http.Request) {
		var req failoverReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		v, inst := findInstance(ch, req.Instance)
		if inst == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no instance %d", req.Instance)})
			return
		}
		nm := ch.NodeMap() // nil outside a multi-process deployment
		if req.Rehome != "" {
			if nm == nil {
				writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "rehome needs a multi-process deployment"})
				return
			}
			// The replacement's ID is the next global instance ID; every
			// worker has executed the same mutation history, so they all
			// compute the same one and install the same mapping.
			nextEP := fmt.Sprintf("v%d.i%d", v.ID, maxInstanceID(ch)+1)
			nm.Reassign(nextEP, req.Rehome)
		}
		nu := ctl.Failover(inst)
		resp := map[string]any{"replaced": inst.ID, "replacement": nu.ID, "endpoint": nu.Endpoint}
		if nm != nil {
			resp["home"] = nm.NodeOf(nu.Endpoint)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

// startAdmin serves the admin API of a single-process live run. It binds
// synchronously (so a bad address fails the run up front) and serves in
// the background for the lifetime of the run.
func startAdmin(addr string, ch *runtime.Chain) *http.Server {
	srv, bound := serveAdmin(addr, adminMux(ch, ""))
	fmt.Printf("admin: API on http://%s (GET /health, /spec, /status, /netstats; POST /spec, /drain/{vertex}, /failover)\n", bound)
	return srv
}

// serveAdmin binds addr synchronously and serves mux in the background,
// returning the server and the bound address.
func serveAdmin(addr string, mux *http.ServeMux) (*http.Server, net.Addr) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("admin listen: %w", err))
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// findInstance locates an instance (and its vertex) by global ID.
func findInstance(ch *runtime.Chain, id uint16) (*runtime.Vertex, *runtime.Instance) {
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			if in.ID == id {
				return v, in
			}
		}
	}
	return nil, nil
}

// maxInstanceID is the highest instance ID allocated so far.
func maxInstanceID(ch *runtime.Chain) uint16 {
	var max uint16
	for _, v := range ch.Vertices {
		for _, in := range v.Instances {
			if in.ID > max {
				max = in.ID
			}
		}
	}
	return max
}
