// Netswap: paging over a simulated network. A domain's pager cleans to and
// faults from a remote swap server reached over a lossy link — the E8
// experiments in miniature. First a latency sweep shows where each fault
// millisecond goes (wire out, remote disk, wire back); then a tiered
// local+remote backing pages straight through a remote outage by degrading
// onto its local tier, exactly as a self-paging domain should: the failure
// costs only the domain that chose to page remotely, and even it keeps its
// QoS at reduced capacity.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nemesis/internal/experiments"
)

func main() {
	log.SetFlags(0)

	fmt.Println("paging against a remote swap server at three link latencies...")
	latencies := []time.Duration{200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
	sweep, err := experiments.RunNetswapSweep(context.Background(), latencies, []float64{0, 0.05}, 5*time.Second, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfault-latency breakdown (p50, ms):")
	fmt.Println("  latency  loss  Mbit/s  net.out  remote.store  net.back  retries")
	for _, c := range sweep.Cells {
		fmt.Printf("  %-7v  %.2f  %6.2f  %7.3f  %12.3f  %8.3f  %7d\n",
			c.Latency, c.Loss, c.Mbps, c.NetOutP50Ms, c.StoreP50Ms, c.NetBackP50Ms, c.Retries)
	}

	fmt.Println("\ntiered local+remote backing through a 5 s remote outage...")
	deg, err := experiments.RunNetswapDegrade(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthroughput before/during/after (Mbit/s): %.2f / %.2f / %.2f\n",
		deg.Mbps[0], deg.Mbps[1], deg.Mbps[2])
	fmt.Printf("degraded during the outage: %v\n", deg.DegradedDuringOutage)
	fmt.Printf("pages demoted to the remote tier: %d, cleaned locally while degraded: %d\n",
		deg.Stats.Demotions, deg.Stats.LocalFallbacks)
	if deg.Mbps[1] > deg.Mbps[0]/2 {
		fmt.Println("the outage never showed up in the domain's paging QoS.")
	}
}
