package obs

import (
	"net"
	"net/http"

	"repro/internal/metrics"
)

// MetricsHandler serves a registry over HTTP: Prometheus text
// exposition (version 0.0.4) at /metrics and the JSON snapshot at
// /debug/pilot. The registry's own lock makes scraping safe while the
// simulation keeps observing; /metrics renders under that lock and
// writes the response after releasing it.
func MetricsHandler(reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pilot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	return mux
}

// MetricsServer is a live exposition endpoint started by ServeMetrics.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics listens on addr (":9090", "127.0.0.1:0", ...) and serves
// reg's /metrics and /debug/pilot endpoints from a background
// goroutine until Close. The returned server reports the bound address
// — useful with port 0.
func ServeMetrics(addr string, reg *metrics.Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: MetricsHandler(reg)}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}

// Addr returns the listener's bound address.
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down and releases the port.
func (s *MetricsServer) Close() error { return s.srv.Close() }
