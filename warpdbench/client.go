package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"warp/internal/service"
)

// endpoint is where a workload sends its requests: warpd over HTTP for
// the end-to-end run, or the traced in-process replay (trace.go).
type endpoint interface {
	// call posts one request and reads the whole reply, counting it as
	// attempted in t and as failed on a transport error or a non-2xx
	// status.  The latency runs from the send until the last byte of
	// the reply; decoding and checking the reply are not timed.
	call(t *tally, path string, body []byte) (reply []byte, lat time.Duration, ok bool)
	close()
}

// server is one in-process warpd: the production handler with the
// default Config (verification on, backend auto) behind a loopback
// HTTP listener, plus the client the benchmark drives it with.
type server struct {
	svc *service.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startServer() *server {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	return &server{svc: svc, ts: ts, hc: ts.Client()}
}

// close shuts the listener (waiting for in-flight requests), drains the
// worker pool and drops idle client connections.
func (s *server) close() {
	s.ts.Close()
	s.svc.Close()
	s.hc.CloseIdleConnections()
}

// post sends one request and reads the whole reply.  The latency runs
// from the send until the last byte of the body has arrived; decoding
// and checking the reply happen after it and are not timed.
func (s *server) post(path string, body []byte) (status int, reply []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := s.hc.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, lat, err
}

func (s *server) call(t *tally, path string, body []byte) (reply []byte, lat time.Duration, ok bool) {
	t.attempt()
	status, reply, lat, err := s.post(path, body)
	switch {
	case err != nil:
		t.fail("transport", false, err.Error())
		return nil, lat, false
	case status < 200 || status > 299:
		t.fail(fmt.Sprintf("http %d", status), false, path+": "+string(trim(reply)))
		return nil, lat, false
	}
	return reply, lat, true
}

func trim(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// compileBody encodes a /compile request.
func compileBody(src string, opts service.CompileOptions) []byte {
	b, err := json.Marshal(service.CompileRequest{Source: src, Options: opts})
	if err != nil {
		panic(err) // strings and ints always encode
	}
	return b
}

// runByAddress encodes a /run request naming a cached program, splicing
// in inputs that were encoded once in set-up.
func runByAddress(key string, inputs json.RawMessage) []byte {
	b, err := json.Marshal(struct {
		Program string          `json:"program"`
		Inputs  json.RawMessage `json:"inputs"`
	}{key, inputs})
	if err != nil {
		panic(err)
	}
	return b
}

func encodeInputs(in map[string][]float64) json.RawMessage {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // finite floats always encode
	}
	return b
}

// checkRun decodes a /run reply and compares output out with want,
// counting a mismatch or an undecodable reply as an incorrect result.
func checkRun(t *tally, label string, reply []byte, out string, want []float64) {
	var rr service.RunResponse
	if err := json.Unmarshal(reply, &rr); err != nil {
		t.fail("output", true, label+": bad reply: "+err.Error())
		return
	}
	if err := check(rr.Outputs[out], want); err != nil {
		t.fail("output", true, label+": "+out+err.Error())
	}
}

// heapMB returns the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
