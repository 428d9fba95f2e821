package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HealthStatus is the /healthz verdict.
type HealthStatus struct {
	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason,omitempty"`
	// DropRate is the observed drop fraction the verdict was keyed on;
	// QueueFrac the worst per-cell queue fill fraction.
	DropRate  float64 `json:"drop_rate"`
	QueueFrac float64 `json:"queue_frac"`
}

// AdminConfig wires the admin server to its data sources. Every hook is
// a closure so the server stays generic: it has no idea what a serving
// runtime is, only how to render what it is handed.
type AdminConfig struct {
	// Addr is the listen address (e.g. ":9090" or "127.0.0.1:0").
	Addr string
	// Metrics supplies the exposition families for /metrics (Prometheus
	// text) and /metrics?format=json.
	Metrics func() []Family
	// Snapshot supplies the /snapshot JSON body.
	Snapshot func() any
	// Spans supplies the /spans JSON body (recent and slowest spans).
	Spans func() any
	// Health supplies the /healthz verdict (nil → always healthy).
	Health func() HealthStatus
}

// AdminServer is the live observability endpoint of a serving process:
// /metrics, /snapshot, /spans, /healthz and /debug/pprof/* on one
// mux, started with Start and stopped gracefully with Shutdown.
type AdminServer struct {
	cfg  AdminConfig
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// NewAdmin builds the server (not yet listening).
func NewAdmin(cfg AdminConfig) *AdminServer {
	a := &AdminServer{cfg: cfg, done: make(chan struct{})}
	a.srv = &http.Server{
		Handler:           a.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return a
}

// Handler returns the admin mux (exported so tests and embedders can
// mount it without a listener).
func (a *AdminServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/snapshot", a.handleJSON(func() any {
		if a.cfg.Snapshot == nil {
			return nil
		}
		return a.cfg.Snapshot()
	}))
	mux.HandleFunc("/spans", a.handleJSON(func() any {
		if a.cfg.Spans == nil {
			return nil
		}
		return a.cfg.Spans()
	}))
	mux.HandleFunc("/healthz", a.handleHealth)
	// Explicit pprof routes: the runtime's own mux, not DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *AdminServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var fams []Family
	if a.cfg.Metrics != nil {
		fams = a.cfg.Metrics()
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, fams)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteProm(w, fams)
}

func (a *AdminServer) handleJSON(body func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(body()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (a *AdminServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := HealthStatus{Healthy: true}
	if a.cfg.Health != nil {
		st = a.cfg.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	if !st.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(st)
}

// Start binds the listener and serves in a background goroutine. With a
// ":0" port the bound address is available from Addr afterwards.
func (a *AdminServer) Start() error {
	ln, err := net.Listen("tcp", a.cfg.Addr)
	if err != nil {
		return fmt.Errorf("telemetry: admin listen %s: %w", a.cfg.Addr, err)
	}
	a.ln = ln
	go func() {
		defer close(a.done)
		_ = a.srv.Serve(ln)
	}()
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (a *AdminServer) Addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// URL reports the http base URL of the bound listener.
func (a *AdminServer) URL() string {
	if a.ln == nil {
		return ""
	}
	return "http://" + a.ln.Addr().String()
}

// Shutdown stops accepting connections and waits (bounded by ctx) for
// in-flight requests, then for the serve goroutine to exit.
func (a *AdminServer) Shutdown(ctx context.Context) error {
	if a.ln == nil {
		return nil
	}
	err := a.srv.Shutdown(ctx)
	select {
	case <-a.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
