// Command cbfww runs an interactive Capacity Bound-free Web Warehouse over
// a generated synthetic web and exposes every non-transparent surface of
// the system as a small REPL:
//
//	get <url> [user]     fetch through the warehouse
//	query <select ...>   popularity-aware query (§4.3)
//	search <terms>       ranked full-text retrieval
//	hot                  current hot topics
//	related <term>       co-occurring terms
//	recommend <user>     content suggestions
//	next <url>           social-navigation suggestions
//	mine                 discover logical pages / semantic regions
//	maintain             run a maintenance sweep
//	history <url>        stored versions
//	pages | stats | analyze | urls | help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cbfww/internal/analyzer"
	"cbfww/internal/core"
	"cbfww/internal/logmine"
	"cbfww/internal/schema"
	"cbfww/internal/warehouse"
	"cbfww/internal/workload"
)

func main() {
	var (
		sites      = flag.Int("sites", 8, "origin sites in the synthetic web")
		pages      = flag.Int("pages", 25, "pages per site")
		seed       = flag.Int64("seed", 1, "random seed")
		schemaFile = flag.String("schema", "", "storage schema definition file (see internal/schema)")
	)
	flag.Parse()

	w, g, clock, err := build(*sites, *pages, *seed, *schemaFile)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("CBFWW ready: %d pages on %d sites (try 'urls', then 'get <url>'; 'help' lists commands)\n",
		g.Web.NumPages(), *sites)
	repl(os.Stdin, os.Stdout, w, g, clock)
}

// build generates the synthetic web and a warehouse over it, applying the
// storage schema in schemaFile when one is named.
func build(sites, pages int, seed int64, schemaFile string) (*warehouse.Warehouse, *workload.GeneratedWeb, *core.SimClock, error) {
	clock := core.NewSimClock(0)
	wcfg := workload.DefaultWebConfig()
	wcfg.Sites, wcfg.PagesPerSite, wcfg.Seed = sites, pages, seed
	g, err := workload.GenerateWeb(clock, wcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := warehouse.DefaultConfig()
	cfg.Miner.MinSupport = 2
	if schemaFile != "" {
		text, err := os.ReadFile(schemaFile)
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := schema.Parse(string(text))
		if err != nil {
			return nil, nil, nil, err
		}
		if err := cfg.ApplySchema(s); err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("applied schema %s (admission rules: %v, consistency: %v)\n",
			schemaFile, s.Admission.Rules(), s.Consistency.Mode)
	}
	w, err := warehouse.New(cfg, clock, g.Web)
	return w, g, clock, err
}

// repl reads commands from in and answers on out. It keeps the access log
// that mine and analyze read: one record per get a user made.
func repl(in io.Reader, out io.Writer, w *warehouse.Warehouse, g *workload.GeneratedWeb, clock *core.SimClock) {
	sc := bufio.NewScanner(in)
	var log logmine.Log
	for {
		fmt.Fprint(out, "cbfww> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		clock.Advance(1)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			help(out)
		case "urls":
			for i, u := range g.PageURLs {
				if i >= 20 {
					fmt.Fprintf(out, "  ... and %d more\n", len(g.PageURLs)-20)
					break
				}
				fmt.Fprintln(out, " ", u)
			}
		case "get":
			url, user, _ := strings.Cut(rest, " ")
			if url == "" {
				fmt.Fprintln(out, "usage: get <url> [user]")
				continue
			}
			if user == "" {
				user = "console"
			}
			res, err := w.Get(user, url)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			log = append(log, logmine.Record{Time: clock.Now(), User: user, URL: url, Status: 200, Bytes: res.Page.Size})
			fmt.Fprintf(out, "%s [%s, latency %d, prio %.2f, hit=%v]\n  %s\n",
				res.Page.Title, res.Source, int64(res.Latency), float64(res.Priority), res.Hit,
				trim(res.Page.Body, 120))
			if !res.Hit {
				fmt.Fprintln(out, "  admission:", res.Explanation)
			}
		case "query":
			rows, err := w.Query(rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, r := range rows {
				cells := make([]string, len(r.Values))
				for i, v := range r.Values {
					cells[i] = v.String()
				}
				fmt.Fprintln(out, " ", strings.Join(cells, " | "))
			}
			fmt.Fprintf(out, "(%d rows)\n", len(rows))
		case "search":
			for _, s := range w.Search(rest, 8) {
				fmt.Fprintf(out, "  %.3f %v\n", s.Value, s.Doc)
			}
		case "wsearch":
			res, err := w.SearchWithFallback(rest, 5, 5)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if len(res.Fetched) > 0 {
				fmt.Fprintf(out, "  fetched from web (%d rounds): %v\n", res.Rounds, res.Fetched)
			}
			for _, s := range res.Scores {
				fmt.Fprintf(out, "  %.3f %v\n", s.Value, s.Doc)
			}
		case "tsearch":
			res := w.SearchTiered(rest, 8)
			fmt.Fprintf(out, "  served by %s index (latency %d):\n", res.Tier, int64(res.Latency))
			for _, s := range res.Scores {
				fmt.Fprintf(out, "  %.3f %v\n", s.Value, s.Doc)
			}
		case "diff":
			parts := strings.Fields(rest)
			if len(parts) != 3 {
				fmt.Fprintln(out, "usage: diff <url> <fromVersion> <toVersion>")
				continue
			}
			v1, err1 := strconv.Atoi(parts[1])
			v2, err2 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil {
				fmt.Fprintln(out, "versions must be integers")
				continue
			}
			d, ok := w.Versions().DiffVersions(parts[0], v1, v2)
			if !ok {
				fmt.Fprintln(out, "versions not stored")
				continue
			}
			fmt.Fprintf(out, "  %s\n  added:   %v\n  removed: %v\n", d, d.Added, d.Removed)
		case "save":
			if rest == "" {
				fmt.Fprintln(out, "usage: save <file>")
				continue
			}
			if err := w.Versions().SaveFile(rest); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintf(out, "  saved %d URL histories (%v)\n",
					len(w.Versions().URLs()), w.Versions().Bytes())
			}
		case "hot":
			for _, wt := range w.Topics().HotTerms(10) {
				fmt.Fprintf(out, "  %.3f %s\n", wt.Weight, wt.Term)
			}
		case "related":
			for _, wt := range w.Topics().Related(rest, 8) {
				fmt.Fprintf(out, "  %.3f %s\n", wt.Weight, wt.Term)
			}
		case "recommend":
			for _, s := range w.Recommend(rest, 5) {
				fmt.Fprintf(out, "  %.3f %v\n", s.Value, s.Doc)
			}
		case "next":
			for _, p := range w.NextHops(rest, 5) {
				fmt.Fprintf(out, "  support=%d via %s\n", p.Support, strings.Join(p.URLs, " -> "))
			}
		case "mine":
			rep, err := w.MinePaths(log)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "  sessions=%d paths=%d logical=%d regions=%d\n",
				rep.Sessions, rep.Paths, rep.LogicalPages, rep.Regions)
		case "maintain":
			rep, err := w.Maintain()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "  bursts=%d prefetched=%d migrations=%d\n",
				len(rep.Bursts), rep.Prefetched, rep.Migrations)
		case "view":
			parts := strings.SplitN(rest, " ", 3)
			switch {
			case len(parts) >= 3 && parts[0] == "save":
				if err := w.SaveView("console", parts[1], parts[2]); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintf(out, "  view %q saved\n", parts[1])
				}
			case len(parts) >= 2 && parts[0] == "drop":
				if err := w.DropView("console", parts[1]); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case len(parts) == 1 && parts[0] == "list":
				for _, v := range w.Views("console") {
					fmt.Fprintf(out, "  %-12s %s\n", v.Name, v.Query)
				}
			case len(parts) == 1 && parts[0] != "":
				rows, err := w.View("console", parts[0])
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				for _, r := range rows {
					cells := make([]string, len(r.Values))
					for i, v := range r.Values {
						cells[i] = v.String()
					}
					fmt.Fprintln(out, " ", strings.Join(cells, " | "))
				}
			default:
				fmt.Fprintln(out, "usage: view save <name> <query> | view <name> | view list | view drop <name>")
			}
		case "history":
			for _, s := range w.Versions().History(rest) {
				fmt.Fprintf(out, "  v%d @%v %q\n", s.Version, s.Time, trim(s.Title, 60))
			}
		case "pages":
			infos := w.Pages()
			sort.Slice(infos, func(i, j int) bool { return infos[i].Priority > infos[j].Priority })
			for i, info := range infos {
				if i >= 15 {
					fmt.Fprintf(out, "  ... and %d more\n", len(infos)-15)
					break
				}
				fmt.Fprintf(out, "  %.2f %-8s %s\n", float64(info.Priority), info.Tier, info.URL)
			}
		case "stats":
			s := w.Stats()
			fmt.Fprintf(out, "  requests=%d hits=%d (%.1f%%) memoryHits=%d origin=%d reval=%d prefetch=%d meanLatency=%.1f\n",
				s.Requests, s.Hits, 100*s.HitRatio(), s.MemoryHits,
				s.OriginFetches, s.Revalidations, s.Prefetches, s.MeanLatency())
		case "analyze":
			fmt.Fprint(out, analyzer.Analyze(log, 3))
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", cmd)
		}
	}
}

func help(out io.Writer) {
	fmt.Fprint(out, `  get <url> [user]      fetch a page through the warehouse
  query <select ...>    popularity-aware query, e.g.
                        query SELECT MFU 5 p.url FROM Physical_Page p
  search <terms>        ranked retrieval over stored contents
  tsearch <terms>       tiered retrieval (memory index first, §4.1)
  wsearch <terms>       retrieval with web fallback (§3(1) feedback loop)
  diff <url> <v1> <v2>  term-level delta between stored versions
  save <file>           persist version histories to disk
  view save|list|drop   per-user stored views (§3(5))
  hot / related <term>  topic model
  recommend <user>      content suggestions for a user
  next <url>            social-navigation suggestions
  mine / maintain       discovery and self-organization sweeps
  history <url>         stored versions
  pages / stats / analyze / urls / quit
`)
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbfww:", err)
	os.Exit(1)
}
