package simweb

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Handler adapts the simulated web to net/http so the crawler path and the
// proxy example run over real sockets. Pages are served as minimal HTML
// with their anchors rendered as <a href> links and components as <img>
// references; version and last-modified surface as headers.
//
// The handler serves any host: the request's Host header selects the site,
// so one listener can front the whole simulated web (point the client's
// proxy at it).
func (w *Web) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		host := req.Host
		if host == "" {
			host = req.URL.Host
		}
		// Strip any port mapping the test listener introduced.
		if i := strings.IndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		url := "http://" + host + req.URL.Path
		if req.Method == http.MethodHead {
			// HEAD is the consistency probe: version and last-modified
			// without a body transfer, and — deliberately — without counting
			// as an origin fetch (FetchCount stays the currency of
			// single-fetch assertions).
			version, lastMod, err := w.HeadCtx(req.Context(), url)
			if err != nil {
				http.NotFound(rw, req)
				return
			}
			rw.Header().Set("Content-Type", "text/html; charset=utf-8")
			rw.Header().Set("X-Simweb-Version", strconv.Itoa(version))
			rw.Header().Set("X-Simweb-LastMod", strconv.FormatInt(int64(lastMod), 10))
			return
		}
		res, err := w.FetchCtx(req.Context(), url)
		if err != nil {
			http.NotFound(rw, req)
			return
		}
		p := res.Page
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		rw.Header().Set("X-Simweb-Version", strconv.Itoa(p.Version))
		rw.Header().Set("X-Simweb-LastMod", strconv.FormatInt(int64(p.LastMod), 10))
		rw.Header().Set("X-Simweb-Latency", strconv.FormatInt(int64(res.Latency), 10))
		fmt.Fprintf(rw, "<html><head><title>%s</title></head><body>\n", p.Title)
		fmt.Fprintf(rw, "<p>%s</p>\n", p.Body)
		for _, a := range p.Anchors {
			fmt.Fprintf(rw, "<a href=%q>%s</a>\n", a.Target, a.Text)
		}
		for _, c := range p.Components {
			fmt.Fprintf(rw, "<img src=%q width=%d>\n", c.URL, int64(c.Size))
		}
		fmt.Fprint(rw, "</body></html>\n")
	})
}
