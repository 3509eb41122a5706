package netswap

import (
	"errors"
	"testing"

	"nemesis/internal/sim"
)

// TestPoolPlacement pins the deterministic least-reserved placement and the
// capacity-reserving admission control.
func TestPoolPlacement(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Server.StoreBytes = 1 << 20 // 1 MB per server
	p, err := NewPool(s, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Equal reservations alternate servers: ties go to the lowest index.
	for i, want := range []int{0, 1, 0, 1} {
		name := string(rune('a' + i))
		if _, err := p.Place(name, name, 256<<10); err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		other := 1 - want
		if p.Reserved(want) < p.Reserved(other) {
			t.Fatalf("place %d: reserved %d/%d", i, p.Reserved(0), p.Reserved(1))
		}
	}
	if p.Reserved(0) != 512<<10 || p.Reserved(1) != 512<<10 || p.Clients() != 4 {
		t.Fatalf("reserved %d/%d clients %d", p.Reserved(0), p.Reserved(1), p.Clients())
	}

	// A large reservation still fits one server; the next copy fits the
	// other; the third fits nowhere.
	if _, err := p.Place("big1", "big1", 512<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place("big2", "big2", 512<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place("big3", "big3", 512<<10); !errors.Is(err, ErrPoolAdmission) {
		t.Fatalf("err = %v", err)
	}
	// A refused placement reserves nothing.
	if p.Reserved(0)+p.Reserved(1) != 2<<20 {
		t.Fatalf("reserved %d/%d after refusal", p.Reserved(0), p.Reserved(1))
	}

	// Bad reservations and duplicate client names are refused.
	if _, err := p.Place("zero", "zero", 0); err == nil {
		t.Fatal("zero reservation admitted")
	}
	p2, err := NewPool(s, nil, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Place("dup", "dup", 1<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Place("dup", "dup", 1<<10); err == nil {
		t.Fatal("duplicate client admitted")
	}

	if _, err := NewPool(s, nil, 0, cfg); err == nil {
		t.Fatal("empty pool built")
	}
	p.Stop()
	p2.Stop()
}
