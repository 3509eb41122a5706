package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// clusterOpts is the tests' scaled-down cluster.
func clusterOpts(machines, domains int) ClusterOptions {
	opt := DefaultClusterOptions()
	opt.Machines = machines
	opt.DomainsPerMachine = domains
	opt.Measure = 2 * time.Second
	return opt
}

// TestClusterScenario runs a small cluster end to end and checks the
// guarantees the scenario is built to prove: every domain is admitted and
// placed, paging flows through the remote pool, and the audit shows zero
// guarantee violations and zero revocation kills.
func TestClusterScenario(t *testing.T) {
	res, err := RunCluster(context.Background(), clusterOpts(2, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machines) != 2 {
		t.Fatalf("machines = %d", len(res.Machines))
	}
	tot := res.Totals()
	if tot.Domains != 120 || tot.HotDomains != 12 {
		t.Fatalf("domains %d hot %d", tot.Domains, tot.HotDomains)
	}
	if tot.Faults == 0 || tot.BytesTouched == 0 || tot.Events == 0 {
		t.Fatalf("no activity: %+v", tot)
	}
	if tot.RemoteReads == 0 || tot.RemoteWrites == 0 {
		t.Fatalf("no remote paging: %+v", tot)
	}
	if tot.Violations != 0 || tot.Kills != 0 {
		t.Fatalf("QoS breached: %d violations, %d kills", tot.Violations, tot.Kills)
	}
	if tot.MonitorTicks == 0 {
		t.Fatal("incremental monitor never ticked")
	}
}

// TestClusterDeterministicAcrossWorkers is the serial-vs-parallel identity:
// the summary must be byte-identical whether machines run on one worker or
// fan out across eight.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	opt := clusterOpts(4, 40)
	opt.Workers = 1
	serial, err := RunCluster(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	parallel, err := RunCluster(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteSummary(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("serial and parallel summaries differ:\n--- serial ---\n%s--- parallel ---\n%s", a.String(), b.String())
	}
}

// TestClusterPerDomainCostSubLinear is the scaling acceptance check in
// miniature: growing the population 10× must not grow the per-domain event
// cost — the indexed scheduler and incremental monitor keep idle domains
// free, so per-domain events stay within 3× of the small cell's.
func TestClusterPerDomainCostSubLinear(t *testing.T) {
	small, err := RunCluster(context.Background(), clusterOpts(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunCluster(context.Background(), clusterOpts(1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	perSmall := float64(small.Totals().Events) / 100
	perBig := float64(big.Totals().Events) / 1000
	t.Logf("events/domain: %d domains %.1f, %d domains %.1f", 100, perSmall, 1000, perBig)
	if perBig > 3*perSmall {
		t.Fatalf("per-domain cost grew superlinearly: %.1f → %.1f events/domain", perSmall, perBig)
	}
}
