// Command crumbweb inspects the deterministic synthetic web and can serve
// it over real HTTP for exploration: requests are routed by Host header,
// so `curl -H "Host: <domain>" http://localhost:8080/` renders any page
// exactly as the crawlers see it.
//
// Usage:
//
//	crumbweb [-seed N] [-sites N] [-small]                # print inventory
//	crumbweb -domain example.com                          # one site's detail
//	crumbweb -listen :8080                                # serve the world
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"crumbcruncher/internal/tranco"
	"crumbcruncher/internal/web"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crumbweb: ")

	var (
		seed    = flag.Int64("seed", 1, "world seed")
		sites   = flag.Int("sites", 0, "number of content sites (0: default)")
		small   = flag.Bool("small", false, "small demo world")
		domain  = flag.String("domain", "", "print one site's detail")
		listen  = flag.String("listen", "", "serve the world over HTTP on this address")
		trancoF = flag.Bool("tranco", false, "print the world's seeder ranking in Tranco CSV format")
	)
	flag.Parse()

	cfg := web.DefaultConfig()
	if *small {
		cfg = web.SmallConfig()
	}
	cfg.Seed = *seed
	if *sites > 0 {
		cfg.NumSites = *sites
	}
	world := web.BuildWorld(cfg)

	switch {
	case *trancoF:
		if err := tranco.Write(os.Stdout, tranco.FromDomains(world.Seeders())); err != nil {
			log.Fatal(err)
		}
	case *listen != "":
		serve(world, *listen)
	case *domain != "":
		printSite(world, *domain)
	default:
		printInventory(world)
	}
}

func printInventory(w *web.World) {
	fmt.Printf("synthetic web: %d sites, %d trackers (seed %d)\n\n",
		len(w.Sites()), len(w.Trackers()), w.Config().Seed)

	fmt.Println("TRACKERS")
	for _, t := range w.Trackers() {
		smuggles := ""
		if t.Smuggles {
			smuggles = " [smuggles]"
		}
		fmt.Printf("  %-18s %-22s param=%-14s clicks=%s%s\n",
			t.Kind, t.Domain, t.Param, strings.Join(t.ClickHosts, ","), smuggles)
	}

	fmt.Println("\nTOP 25 SITES")
	for i, d := range w.Seeders() {
		if i >= 25 {
			break
		}
		s := w.Site(d)
		extras := ""
		if s.SyncTracker != nil {
			extras += " sync-org"
		}
		if s.SSOHost != "" {
			extras += " sso=" + s.SSOHost
		}
		if s.ShortenerHost != "" {
			extras += " shortener=" + s.ShortenerHost
		}
		if s.Fingerprinting {
			extras += " fingerprinting"
		}
		fmt.Printf("  #%-3d %-28s %-10s %-26s ads=%d%s\n",
			s.Rank, s.Domain, s.Kind, s.Category, s.AdSlots, extras)
	}

	fmt.Printf("\nLISTS: disconnect=%d domains, easylist=%d rules, entity list=%d orgs, fingerprinters=%d sites\n",
		len(w.DisconnectList()), len(w.EasyListRules()), len(w.EntityListDomains()), len(w.Fingerprinters()))
}

func printSite(w *web.World, domain string) {
	s := w.Site(domain)
	if s == nil {
		log.Fatalf("no site %q in this world", domain)
	}
	fmt.Printf("%s (rank %d, %s, %s, org %q)\n", s.Domain, s.Rank, s.Kind, s.Category, s.Org)
	for _, t := range s.Decorators {
		fmt.Printf("  decorator: %s (param %s, ttl %dd)\n", t.Domain, t.Param, t.TTLDays)
	}
	for _, t := range s.AdNetworks {
		fmt.Printf("  ad network: %s (%d campaigns)\n", t.Domain, len(t.Campaigns))
	}
	for _, t := range s.Analytics {
		fmt.Printf("  analytics: %s\n", t.Domain)
	}
	for _, c := range s.Collectors {
		fmt.Printf("  collector: %s (params %s,%s, ttl %dd)\n", c.Domain, c.Param, c.MidParam, c.TTLDays)
	}
	fmt.Printf("  partners: %s\n", strings.Join(s.Partners, ", "))
}

// serve exposes the virtual network over a real listener, routing by Host
// header.
func serve(w *web.World, addr string) {
	fmt.Fprintf(os.Stderr, "serving %d sites on %s — e.g. curl -H 'Host: %s' http://localhost%s/\n",
		w.NumSeeders(), addr, w.SeedersN(1)[0], addr)
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// Dispatch through the virtual transport so fault injection and
		// identity semantics apply exactly as in a crawl.
		r2 := r.Clone(r.Context())
		r2.URL.Scheme = "http"
		r2.URL.Host = r.Host
		r2.RequestURI = ""
		resp, err := w.Network().RoundTrip(r2)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				rw.Header().Add(k, v)
			}
		}
		rw.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(rw, resp.Body); err != nil {
			log.Printf("copy: %v", err)
		}
	})
	log.Fatal(http.ListenAndServe(addr, handler))
}
