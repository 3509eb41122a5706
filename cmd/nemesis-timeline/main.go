// Command nemesis-timeline validates timeline artifacts:
//
//	nemesis-timeline -check run.json
//	         validate a trace-event JSON file (nemesis-paging -timeline or
//	         -cluster-trace) against the minimal schema (non-empty
//	         traceEvents; name/phase/pid/ts on every event)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nemesis/internal/obs"
)

func main() {
	log.SetFlags(0)
	check := flag.String("check", "", "trace-event JSON file to validate")
	flag.Parse()

	if *check == "" {
		log.Fatal("nemesis-timeline: nothing to do (want -check)")
	}
	f, err := os.Open(*check)
	if err != nil {
		log.Fatalf("nemesis-timeline: %v", err)
	}
	err = obs.ValidateTrace(f)
	f.Close()
	if err != nil {
		log.Fatalf("nemesis-timeline: %s: %v", *check, err)
	}
	fmt.Printf("%s: valid trace-event JSON\n", *check)
}
