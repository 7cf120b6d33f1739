// Command cbfww-loadgen generates synthetic webs and Kyoto-inet-like
// access traces to files, for inspection or for feeding external tools,
// or serves the generated web over HTTP as an origin for cbfww-serve:
//
//	cbfww-loadgen -sites 20 -pages 100 -sessions 5000 -out trace.log
//	cbfww-loadgen -report            # print the analyzer report instead
//	cbfww-loadgen -serve 127.0.0.1:9000   # then cbfww-serve -origin 127.0.0.1:9000
//
// The trace is written in the extended Common Log Format of
// internal/logmine (one record per line); -urls additionally dumps the
// generated page URLs with their ground-truth topics.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"cbfww/internal/analyzer"
	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbfww-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sites    = fs.Int("sites", 20, "number of origin sites")
		pages    = fs.Int("pages", 50, "pages per site")
		topics   = fs.Int("topics", 10, "ground-truth topics")
		sessions = fs.Int("sessions", 2000, "navigation sessions to generate")
		length   = fs.Int64("length", 30*24*3600, "trace length in ticks (1 tick = 1s)")
		zipf     = fs.Float64("zipf", 0.9, "popularity skew s")
		affinity = fs.Float64("affinity", 0.5, "topic-popularity affinity [0,1]")
		churn    = fs.Float64("churn", 0.001, "expected page updates per tick")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "-", "trace output file (- = stdout)")
		urls     = fs.String("urls", "", "also dump page URLs + topics to this file")
		report   = fs.Bool("report", false, "print analyzer report instead of the raw trace")
		serve    = fs.String("serve", "", "serve the generated web over HTTP on this host:port until interrupted, instead of writing a trace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Topics, wcfg.Seed = *sites, *pages, *topics, *seed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		return fatal(stderr, err)
	}
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stderr, "serving %d pages on http://%s, e.g. %s\n", len(g.PageURLs), ln.Addr(), g.PageURLs[0])
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(stop)
		if err := serveWeb(ln, g.Web, stop); err != nil {
			return fatal(stderr, err)
		}
		return 0
	}

	tcfg := workload.DefaultTraceConfig()
	tcfg.Sessions = *sessions
	tcfg.Length = core.Duration(*length)
	tcfg.ZipfS = *zipf
	tcfg.TopicAffinity = *affinity
	tcfg.UpdatesPerTick = *churn
	tcfg.Seed = *seed
	tr, err := workload.GenerateTrace(g, clock, tcfg)
	if err != nil {
		return fatal(stderr, err)
	}

	if *urls != "" {
		f, err := os.Create(*urls)
		if err != nil {
			return fatal(stderr, err)
		}
		for _, u := range g.PageURLs {
			fmt.Fprintf(f, "%s topic=%d\n", u, g.TopicOf[u])
		}
		if err := f.Close(); err != nil {
			return fatal(stderr, err)
		}
	}

	if *report {
		rep := analyzer.Analyze(tr.Log, 3)
		fmt.Fprint(stdout, rep)
		fmt.Fprintln(stdout, "top 10 URLs:")
		for _, uc := range rep.TopK(10) {
			fmt.Fprintf(stdout, "  %6d  %s\n", uc.Count, uc.URL)
		}
		return 0
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(stderr, err)
		}
		defer f.Close()
		w = f
	}
	if _, err := tr.Log.WriteTo(w); err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stderr, "wrote %d records (%d content updates applied)\n", len(tr.Log), tr.Updates)
	return 0
}

// serveWeb serves web on ln, every host from one listener, until stop
// fires.
func serveWeb(ln net.Listener, web *simweb.Web, stop <-chan os.Signal) error {
	go http.Serve(ln, web.Handler()) // returns once ln is closed
	<-stop
	return ln.Close()
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "cbfww-loadgen:", err)
	return 1
}
