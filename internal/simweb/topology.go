package simweb

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// HTTPOrigin serves a simulated web over a real TCP socket, optionally
// behind the fault process — the origin for multi-daemon cluster tests.
// It wraps Web.Handler, so one listener fronts every simulated host (the
// request's Host header picks the site), and applies fault decisions
// BEFORE the inner handler runs: an injected error answers 503 without
// ever touching Web.Fetch, so Web.FetchCount still counts exactly the
// fetches that succeeded — the currency of single-origin-fetch
// assertions.
type HTTPOrigin struct {
	web    *Web
	faults *FaultyOrigin
	addr   string
	srv    *http.Server
	done   chan error
}

// NewHTTPOrigin starts serving web on an ephemeral localhost port. A
// non-nil fault config wires the fault process in front of the handler
// (blackouts and error injection become 503s). Close releases the socket.
func NewHTTPOrigin(web *Web, faults *FaultConfig) (*HTTPOrigin, error) {
	if web == nil {
		return nil, fmt.Errorf("simweb: nil web")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("simweb: listen: %w", err)
	}
	o := &HTTPOrigin{web: web, done: make(chan error, 1)}
	if faults != nil {
		o.faults = NewFaultyOrigin(web, *faults)
	}
	inner := web.Handler()
	handler := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if o.faults != nil {
			host := req.Host
			if i := strings.IndexByte(host, ':'); i >= 0 {
				host = host[:i]
			}
			if _, err := o.faults.decide("http://" + host + req.URL.Path); err != nil {
				http.Error(rw, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(rw, req)
	})
	o.addr = ln.Addr().String()
	o.srv = &http.Server{Handler: handler}
	go func() { o.done <- o.srv.Serve(ln) }()
	return o, nil
}

// Addr returns the bound host:port.
func (o *HTTPOrigin) Addr() string { return o.addr }

// Web exposes the served simulated web (for FetchCount assertions).
func (o *HTTPOrigin) Web() *Web { return o.web }

// Blackout toggles a per-host blackout (no-op without a fault config).
func (o *HTTPOrigin) Blackout(host string, on bool) {
	if o.faults != nil {
		o.faults.Blackout(host, on)
	}
}

// FaultStats snapshots the injected-fault counters (zero without faults).
func (o *HTTPOrigin) FaultStats() FaultStats {
	if o.faults == nil {
		return FaultStats{}
	}
	return o.faults.Stats()
}

// Close stops the listener and waits briefly for the server to exit.
func (o *HTTPOrigin) Close() error {
	err := o.srv.Close()
	select {
	case <-o.done:
	case <-time.After(2 * time.Second):
	}
	return err
}

// ReserveAddrs binds and immediately releases n ephemeral localhost
// ports, returning their addresses. Kill/restart topologies need stable
// node addresses — a restarted daemon must come back where the ring
// expects it — and pre-reserving is the standard (briefly racy,
// practically reliable) way to get fixed ports without hardcoding them.
func ReserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("simweb: reserve: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, l := range lns {
		l.Close()
	}
	return addrs, nil
}
