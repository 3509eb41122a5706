package vm

import (
	"fmt"
	"slices"
)

// ProtectionDomain maps each valid stretch to a subset of {read, write,
// execute, meta}. Protection is carried out at stretch granularity; a
// domain executing in a protection domain holding the meta right on a
// stretch may modify protections and mappings on it.
type ProtectionDomain struct {
	id  uint32
	asn uint16
	// rights holds the non-empty rights by ascending stretch ID. A domain
	// holds rights on a few stretches, so a binary search of the slice
	// finds them without a map.
	rights []stretchRights
	// changes counts rights updates (idempotent changes excluded), for
	// the microbenchmarks' idempotence check.
	changes int64
}

// ID returns the protection domain identifier.
func (pd *ProtectionDomain) ID() uint32 { return pd.id }

// ASN returns the hardware address-space number backing this protection
// domain in the TLB.
func (pd *ProtectionDomain) ASN() uint16 { return pd.asn }

// stretchRights is one entry of a protection domain's rights.
type stretchRights struct {
	sid StretchID
	r   Rights
}

// find returns where sid's entry is, or would be inserted, in pd.rights,
// and whether it is there.
func (pd *ProtectionDomain) find(sid StretchID) (int, bool) {
	lo, hi := 0, len(pd.rights)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pd.rights[m].sid < sid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(pd.rights) && pd.rights[lo].sid == sid
}

// RightsOn returns the rights this protection domain holds on a stretch.
func (pd *ProtectionDomain) RightsOn(sid StretchID) Rights {
	if i, ok := pd.find(sid); ok {
		return pd.rights[i].r
	}
	return 0
}

// Changes returns the number of effective (non-idempotent) rights changes.
func (pd *ProtectionDomain) Changes() int64 { return pd.changes }

// setRights updates the mapping, detecting idempotent changes (the paper's
// protection scheme short-circuits them). It reports whether anything
// changed.
func (pd *ProtectionDomain) setRights(sid StretchID, r Rights) bool {
	i, ok := pd.find(sid)
	switch {
	case ok && pd.rights[i].r == r || !ok && r == 0:
		return false
	case r == 0:
		pd.rights = slices.Delete(pd.rights, i, i+1)
	case ok:
		pd.rights[i].r = r
	default:
		pd.rights = slices.Insert(pd.rights, i, stretchRights{sid, r})
	}
	pd.changes++
	return true
}

// pdAllocator hands out protection domains with unique ASNs.
type pdAllocator struct {
	nextID  uint32
	nextASN uint16
	pds     []*ProtectionDomain
}

func (a *pdAllocator) new() (*ProtectionDomain, error) {
	if a.nextASN == 0xFFFF {
		return nil, fmt.Errorf("vm: address space numbers exhausted")
	}
	pd := &ProtectionDomain{id: a.nextID, asn: a.nextASN}
	a.nextID++
	a.nextASN++
	a.pds = append(a.pds, pd)
	return pd, nil
}

func (a *pdAllocator) remove(pd *ProtectionDomain) {
	for i := range a.pds {
		if a.pds[i] == pd {
			a.pds = append(a.pds[:i], a.pds[i+1:]...)
			return
		}
	}
}
