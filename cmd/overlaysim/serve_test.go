package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServeMatchesCLI is the end-to-end contract of the serving layer:
// a job submitted over HTTP returns byte-for-byte the export the CLI
// writes with -json for the same invocation, a duplicate submission is
// served from cache without another engine run, and a stop request
// drains the server cleanly (exit 0).
func TestServeMatchesCLI(t *testing.T) {
	// First the CLI run the service must reproduce.
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fork.json")
	var stdout, stderr bytes.Buffer
	cliArgs := []string{"fork", "-bench=hmmer", "-warm=20000", "-measure=50000"}
	if code := run(append(cliArgs, "-json="+jsonPath), &stdout, &stderr); code != 0 {
		t.Fatalf("CLI fork exited %d, stderr: %s", code, stderr.String())
	}
	cliExport, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}

	// Start the server on a free port via the test hooks.
	ready := make(chan string, 1)
	stop := make(chan struct{})
	serveReady, serveStop = ready, stop
	defer func() { serveReady, serveStop = nil, nil }()

	exited := make(chan int, 1)
	var srvOut, srvErr bytes.Buffer
	go func() {
		exited <- run([]string{"serve", "-addr=127.0.0.1:0", "-workers=1", "-grace=30s"},
			&srvOut, &srvErr)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-exited:
		t.Fatalf("serve exited %d before listening, stderr: %s", code, srvErr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("serve never started listening")
	}
	base := "http://" + addr

	spec := `{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000}`
	post := func() (int, server.JobDoc) {
		resp, err := http.Post(base+"/v1/jobs?wait=true", "application/json",
			strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var doc server.JobDoc
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatalf("decoding job doc: %v", err)
			}
		}
		return resp.StatusCode, doc
	}

	status, doc := post()
	if status != http.StatusOK || doc.State != "done" || doc.Cached {
		t.Fatalf("first submit: status %d state %q cached %v, want 200/done/false",
			status, doc.State, doc.Cached)
	}

	// The served result must be byte-identical to the CLI's -json file.
	resp, err := http.Get(base + "/v1/jobs/" + doc.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(served, cliExport) {
		t.Fatalf("served result differs from CLI export (%d vs %d bytes)",
			len(served), len(cliExport))
	}

	// A duplicate submission is a cache hit: no second engine run.
	status, dup := post()
	if status != http.StatusOK || !dup.Cached {
		t.Fatalf("duplicate submit: status %d cached %v, want 200/true", status, dup.Cached)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), "overlaysim_server_engine_runs 1\n") {
		t.Fatalf("metrics do not show exactly one engine run:\n%s", metrics)
	}

	// Stop the server the way a SIGTERM would and expect a clean drain.
	close(stop)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("serve exited %d, want 0 (stderr: %s)", code, srvErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not exit after stop")
	}
	if !strings.Contains(srvErr.String(), "drained cleanly") {
		t.Errorf("serve stderr missing drain confirmation: %s", srvErr.String())
	}
}

// TestShutdownClosesSilentConnection proves a connection that never
// sends a request — a client's pooled, unused dial — cannot hold the
// shutdown past its budget: the drain stays clean and serve exits 0.
func TestShutdownClosesSilentConnection(t *testing.T) {
	ready := make(chan string, 1)
	stop := make(chan struct{})
	serveReady, serveStop = ready, stop
	defer func() { serveReady, serveStop = nil, nil }()
	addr, shutdown := startCmd(t,
		[]string{"serve", "-addr=127.0.0.1:0", "-workers=1", "-grace=30s"}, ready, stop)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	shutdown()
}
