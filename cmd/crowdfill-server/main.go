// Command crowdfill-server runs the full CrowdFill server stack: the
// front-end REST API (table specifications, collection control, results,
// payment) backed by the embedded document store and the simulated
// marketplace, plus the per-collection back-end WebSocket endpoints.
//
// Usage:
//
//	crowdfill-server -addr :8080 -db crowdfill.json
//
// Then drive it with cmd/crowdfill-ctl (or plain curl):
//
//	crowdfill-ctl -server http://localhost:8080 create -spec spec.json
//	crowdfill-ctl -server http://localhost:8080 start -id specs-000001
//	crowdfill-worker -url ws://localhost:8080/ws/specs-000001 -spec spec.json -worker w1
//
// With -debug-addr a second listener exposes the operational plane:
// Prometheus metrics (/debug/metrics), a JSON snapshot (/debug/metrics.json),
// the flight-recorder dump (/debug/events), and net/http/pprof
// (/debug/pprof/). Kept off the main listener so the serving port never
// exposes profiling endpoints.
//
// Both listeners serve through server.NewHTTPServer, which closes a
// connection that has not sent its request headers within
// server.HTTPHeaderTimeout and a keep-alive connection idle for
// server.HTTPIdleTimeout.
//
// A collection finishes by itself: once its table is complete the front-end
// archives it and marks the spec done, then every worker hears MsgDone and
// the back-end closes their sockets and stops (README, "Collection
// lifecycle"). A spec found running in the store at start-up is marked
// interrupted: its collection did not survive the restart.
package main

import (
	"flag"
	"log"
	"net"

	"crowdfill/internal/docstore"
	"crowdfill/internal/frontend"
	"crowdfill/internal/marketplace"
	"crowdfill/internal/metrics"
	"crowdfill/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for /debug/metrics, /debug/events, /debug/pprof (empty = disabled)")
	db := flag.String("db", "", "document store path (empty = in-memory)")
	pool := flag.Int("pool", 100, "simulated marketplace worker pool size")
	maxWorkers := flag.Int("max-workers", 10, "max workers per collection HIT")
	seed := flag.Int64("seed", 1, "marketplace arrival seed")
	flag.Parse()

	// Operational events (client drops, repair overruns) reach the process
	// log through the flight recorder's sink.
	metrics.DefaultRecorder().SetLogf(log.Printf)

	store, err := docstore.Open(*db)
	if err != nil {
		log.Fatalf("crowdfill-server: %v", err)
	}
	market := marketplace.New(*seed, *pool, true)
	fe := frontend.New(store, market, *maxWorkers)

	// Both listeners are bound before either serves, so a taken port stops
	// the start-up with its error instead of killing a server whose API is
	// already up.
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("crowdfill-server: %v", err)
	}
	var debugLis net.Listener
	if *debugAddr != "" {
		if debugLis, err = net.Listen("tcp", *debugAddr); err != nil {
			log.Fatalf("crowdfill-server: debug listener: %v", err)
		}
		go func() {
			log.Printf("crowdfill-server: debug endpoints (metrics, events, pprof) on %s", debugLis.Addr())
			// The operational plane stopping leaves the API serving.
			if err := server.NewHTTPServer(metrics.Handler(nil, nil)).Serve(debugLis); err != nil {
				log.Printf("crowdfill-server: debug listener: %v", err)
			}
		}()
	}

	log.Printf("crowdfill-server: REST API and WebSocket endpoints on %s", lis.Addr())
	log.Printf("crowdfill-server: marketplace sandbox with %d pooled workers", *pool)
	if err := server.NewHTTPServer(fe.Handler()).Serve(lis); err != nil {
		log.Fatalf("crowdfill-server: %v", err)
	}
}
