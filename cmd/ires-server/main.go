// Command ires-server runs the IReS REST API (D3.3 §3.5) over a simulated
// multi-engine cluster. The original server listens on :1323; so does this
// one by default.
//
// Usage:
//
//	ires-server [-addr :1323] [-lib <asapLibrary dir>] [-seed N]
//
// With -lib, the directory's datasets, operators and abstract operators are
// pre-registered and its abstract workflows become available under
// /api/workflows/{name}. README.md "REST routes" lists every endpoint and
// its answers.
package main

import (
	"flag"
	"fmt"
	"log"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/server"
)

func main() {
	addr := flag.String("addr", ":1323", "listen address")
	lib := flag.String("lib", "", "optional asapLibrary-style directory to preload")
	seed := flag.Int64("seed", 1, "simulation seed")
	profile := flag.Bool("profile", true, "profile preloaded operators with a default grid")
	flag.Parse()

	p, err := ires.NewPlatform(ires.Options{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(p)
	if *lib != "" {
		if err := srv.PreloadLibrary(*lib); err != nil {
			log.Fatal(err)
		}
		if *profile {
			space := ires.ProfileSpace{
				Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
				BytesPerRecord: 1_000,
				Resources: []engine.Resources{
					{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
					{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
				},
			}
			for _, mo := range p.Library.Operators() {
				if _, err := p.ProfileOperator(mo.Name, space); err != nil {
					log.Fatalf("profiling %s: %v", mo.Name, err)
				}
			}
			fmt.Printf("profiled %d operators\n", p.Library.Len())
		}
	}
	fmt.Printf("IReS server listening on %s (%d operators registered)\n", *addr, p.Library.Len())
	log.Fatal(srv.ListenAndServe(*addr))
}
