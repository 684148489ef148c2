package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rsti/internal/service"
)

// server is the service booted in its shipped configuration — memory-only
// compile cache, default queue, one engine worker per CPU — on a loopback
// listener, plus a client limited to one connection per worker.
type server struct {
	svc    *service.Server
	daemon *service.Daemon
	base   string
	client *http.Client
	served chan struct{}
	// rejected counts 429 and 503 answers: load the service shed.
	rejected atomic.Int64
}

func bootServer(workers int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{Workers: workers})
	s := &server{
		svc:    svc,
		daemon: &service.Daemon{Server: svc, Logf: func(string, ...any) {}},
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		// A failed accept loop shows up as failed requests, which the
		// workloads count.
		_ = s.daemon.Serve(l)
	}()
	return s, nil
}

// close drains the daemon, waits for its accept loop to return and drops
// the client's idle connections.
func (s *server) close() {
	s.daemon.Stop()
	<-s.served
	s.client.CloseIdleConnections()
}

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends body to path and decodes a 2xx answer into out.
func (s *server) post(ctx context.Context, path string, body []byte, out any) error {
	return s.postWith(ctx, s.client, path, body, out)
}

// postWith is post over the given client.
func (s *server) postWith(ctx context.Context, client *http.Client, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			s.rejected.Add(1)
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{resp.StatusCode, string(b)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runResp is the part of a /v1/run answer the benchmark checks.
type runResp struct {
	Exit   int64  `json:"exit"`
	Cycles int64  `json:"cycles"`
	Instrs int64  `json:"instrs"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

type compileResp struct {
	Program string `json:"program"`
}

// failureCause labels a failed request for the error report.
func failureCause(op string, err error) string {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return fmt.Sprintf("%s.http_%d", op, se.code)
	case errors.Is(err, context.DeadlineExceeded):
		return op + ".deadline"
	}
	return op + ".transport"
}

// runRequest marshals a /v1/run body by program handle.
func runRequest(handle, mech string) []byte {
	return mustJSON(map[string]string{"program": handle, "mechanism": mech})
}

// clientDeadline bounds every request; a miss counts as a failure.
const clientDeadline = 5 * time.Second

// pacCounts is the PAC-op part of a /v1/metrics pac_ops entry.
type pacCounts struct {
	Signs  int64 `json:"pac_signs"`
	Auths  int64 `json:"pac_auths"`
	Strips int64 `json:"pac_strips"`
}

// metricsResp is the part of /v1/metrics the benchmark reads.
type metricsResp struct {
	PACOps       map[string]pacCounts `json:"pac_ops"`
	CompileCache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"compile_cache"`
}

func (s *server) metrics() (*metricsResp, error) {
	ctx, cancel := context.WithTimeout(context.Background(), clientDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	var m metricsResp
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return &m, nil
}

// pacLedger sums the reference PAC-op counts of every run the service
// answered successfully, per mechanism. HTTP answers carry no PAC-op
// counts, so they are checked in aggregate: the service's own pac_ops
// counters must grow by exactly this much.
type pacLedger struct {
	mu   sync.Mutex
	want map[string]pacCounts
}

func (l *pacLedger) add(ref reference, prog, mech string) {
	e := ref[prog][mech]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.want == nil {
		l.want = map[string]pacCounts{}
	}
	w := l.want[mech]
	w.Signs += e.PacSigns
	w.Auths += e.PacAuths
	w.Strips += e.PacStrips
	l.want[mech] = w
}

// check compares the ledger with the growth of the service counters
// between two /v1/metrics snapshots.
func (l *pacLedger) check(before, after *metricsResp) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for mech, w := range l.want {
		a, b := after.PACOps[mech], before.PACOps[mech]
		got := pacCounts{a.Signs - b.Signs, a.Auths - b.Auths, a.Strips - b.Strips}
		if got != w {
			return fmt.Errorf("mismatch: %s pac_ops grew by %+v, reference runs sum to %+v", mech, got, w)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
