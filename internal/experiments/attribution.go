package experiments

import (
	"fmt"
	"strings"
	"time"

	"nemesis/internal/obs"
)

// AttributionOptions parameterises the attribution-profiling experiment: a
// Fig. 7 or Fig. 8 run scaled to 2 MB applications (the benchmark scale)
// with exact sim-time attribution on, optionally with a hog domain
// contending for the disk.
type AttributionOptions struct {
	// Fig selects the workload: 7 (paging in) or 8 (paging out).
	Fig int
	// Hog admits the 5%-slice unbounded-appetite fourth application.
	Hog     bool
	Measure time.Duration
	Seed    int64
}

// AttributionResult is the outcome of an attribution run.
type AttributionResult struct {
	Paging *PagingResult
	// Profiles is each domain's attribution snapshot at shutdown, in
	// admission order (the three apps, then the hog if admitted).
	Profiles []obs.DomainProfile
	// Folded is the folded-stack export (`domain;state[;hop] us` lines).
	Folded string
}

// ProfileFor returns the profile of one domain by name.
func (r *AttributionResult) ProfileFor(domain string) (obs.DomainProfile, bool) {
	for _, p := range r.Profiles {
		if p.Domain == domain {
			return p, true
		}
	}
	return obs.DomainProfile{}, false
}

// RunAttribution executes a paging experiment with attribution enabled and
// verifies the conservation invariant before returning: every domain's
// accounts must sum exactly to its elapsed sim time, or the run errors.
func RunAttribution(opt AttributionOptions) (*AttributionResult, error) {
	if opt.Fig == 0 {
		opt.Fig = 8
	}
	if opt.Fig != 7 && opt.Fig != 8 {
		return nil, fmt.Errorf("experiments: attribution supports figs 7 and 8, not %d", opt.Fig)
	}
	popt := DefaultPagingOptions()
	popt.VirtBytes = 2 << 20
	if opt.Measure > 0 {
		popt.Measure = opt.Measure
	}
	if opt.Seed != 0 {
		popt.Seed = opt.Seed
	}
	if opt.Fig == 8 {
		popt.Forgetful = true
	}
	popt.Telemetry = true
	popt.Hog = opt.Hog

	r, err := RunPaging(popt)
	if err != nil {
		return nil, err
	}
	if err := r.Sys.CheckAttribution(); err != nil {
		return nil, err
	}
	var folded strings.Builder
	if err := r.Sys.WriteAttributionFolded(&folded); err != nil {
		return nil, err
	}
	return &AttributionResult{
		Paging:   r,
		Profiles: r.Sys.AttributionProfiles(),
		Folded:   folded.String(),
	}, nil
}
