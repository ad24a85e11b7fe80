package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// Routes adds the fleet endpoints to the job API (see docs/CLUSTER.md).
func (co *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", co.handleWorkers)
	mux.HandleFunc("POST /v1/workers", co.handleRegister)
}

// Health reports the fleet size. A coordinator is ready only while at
// least one worker is routable — a load balancer in front of several
// coordinators should skip one that cannot place jobs.
func (co *Coordinator) Health(doc map[string]any) bool {
	workers := co.workerDocs()
	routable := len(healthy(workers))
	doc["workers"], doc["healthy_workers"] = len(workers), routable
	return routable > 0
}

// handleWorkers lists the fleet, stable by URL.
func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]interface{}{"workers": co.workerDocs()})
}

// handleRegister accepts a worker announcement: {"url": "http://..."}.
// Registration is idempotent and doubles as a keep-alive.
func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err), "")
		return
	}
	if body.URL == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("registration needs a url"), "")
		return
	}
	co.RegisterWorker(body.URL)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered", "url": body.URL})
}
