package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/workload"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A generated trace must survive the logmine round trip: every record the
// generator wrote parses back identically.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.log")
	urls := filepath.Join(dir, "urls.txt")

	code, _, stderr := runCLI(t,
		"-sites", "3", "-pages", "10", "-sessions", "50", "-length", "10000",
		"-out", trace, "-urls", urls)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "wrote") {
		t.Errorf("no summary on stderr: %s", stderr)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	log, err := logmine.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("generated trace does not parse: %v", err)
	}
	if len(log) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Errorf("trace does not round-trip byte-identically through logmine")
	}

	udata, err := os.ReadFile(urls)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(udata), "topic=") {
		t.Errorf("urls dump missing topics: %s", udata)
	}
}

// Same seed, same bytes — the generator feeds the regression rig, so it
// must be deterministic through the CLI too.
func TestTraceDeterministic(t *testing.T) {
	args := []string{"-sites", "3", "-pages", "8", "-sessions", "40", "-length", "8000", "-seed", "7"}
	_, a, _ := runCLI(t, args...)
	_, b, _ := runCLI(t, args...)
	if a == "" || a != b {
		t.Fatalf("same seed produced different traces")
	}
}

func TestReportSmoke(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"-sites", "3", "-pages", "10", "-sessions", "60", "-length", "10000", "-report")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "top 10 URLs:") {
		t.Errorf("report missing top-URLs section: %s", stdout)
	}
	if len(stdout) < 100 {
		t.Errorf("suspiciously short report: %q", stdout)
	}
}

func TestFlagErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "-sites", "abc"); code != 2 {
		t.Errorf("bad int flag: code %d", code)
	}
	if code, _, _ := runCLI(t, "-nope"); code != 2 {
		t.Errorf("unknown flag: code %d", code)
	}
	// Invalid generation parameters surface as exit 1, not a panic.
	if code, _, stderr := runCLI(t, "-sites", "0"); code != 1 ||
		!strings.Contains(stderr, "cbfww-loadgen:") {
		t.Errorf("invalid sites: code %d, stderr %s", code, stderr)
	}
	if code, _, _ := runCLI(t, "-sessions", "0"); code != 1 {
		t.Errorf("invalid sessions: code %d", code)
	}
	if code, _, _ := runCLI(t, "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "t.log")); code != 1 {
		t.Errorf("unwritable out: code %d", code)
	}
}

// -serve puts the generated web on a socket: any page URL answers with
// its HTML when asked with the page's host, and stop ends the server.
func TestServeWeb(t *testing.T) {
	cfg := workload.DefaultWebConfig()
	cfg.Sites, cfg.PagesPerSite = 2, 3
	g, err := workload.GenerateWeb(core.NewSimClock(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveWeb(ln, g.Web, stop) }()

	u, err := url.Parse(g.PageURLs[0])
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+u.Path, nil)
	req.Host = u.Host
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	p, _ := g.Web.Lookup(g.PageURLs[0])
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), p.Title) {
		t.Fatalf("GET %s = %d %q, want the page titled %q", g.PageURLs[0], resp.StatusCode, body, p.Title)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("serveWeb: %v", err)
	}
	if code, _, stderr := runCLI(t, "-sites", "1", "-pages", "1", "-serve", "no-such-host-and-port"); code != 1 {
		t.Errorf("unusable -serve address: code %d, stderr %s", code, stderr)
	}
}
