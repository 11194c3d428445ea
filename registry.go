package boomsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// SchemeInfo describes one registered control-flow-delivery scheme. Every
// field is sourced from the scheme's declarative SchemeConfig — the listing
// carries the paper's Section VI-D storage accounting and, via Config, the
// full recipe a client can fetch, modify and resubmit as a custom scheme.
type SchemeInfo struct {
	// Name is the registry key, matching the paper's figures for the
	// built-in schemes.
	Name string `json:"name"`
	// Description summarises the mechanism.
	Description string `json:"description"`
	// StorageOverheadKB is the per-core metadata cost beyond the baseline
	// front end (the paper's Section VI-D accounting).
	StorageOverheadKB float64 `json:"storage_overhead_kb"`
	// Config is the scheme's complete declarative definition.
	Config SchemeConfig `json:"config"`
}

// WorkloadInfo describes one registered workload profile.
type WorkloadInfo struct {
	// Name is the registry key, matching the paper's Table II naming.
	Name string `json:"name"`
	// Description summarises the modelled server workload.
	Description string `json:"description"`
	// FootprintKB is the profile's calibrated instruction footprint.
	FootprintKB int `json:"footprint_kb"`
}

func toSchemeInfo(s scheme.Config) SchemeInfo {
	return SchemeInfo{
		Name:              s.Name,
		Description:       s.Description,
		StorageOverheadKB: s.StorageOverheadKB,
		Config:            s,
	}
}

func toWorkloadInfo(p workload.Profile) WorkloadInfo {
	return WorkloadInfo{
		Name:        p.Name,
		Description: p.Description,
		FootprintKB: p.Gen.FootprintKB,
	}
}

// The registries are string-keyed and guarded by one mutex: registration is
// rare (init time, test setup), lookup is per-New.
var (
	regMu         sync.RWMutex
	schemeReg     = map[string]scheme.Scheme{}
	schemeOrder   []string
	workloadReg   = map[string]workload.Profile{}
	workloadOrder []string
)

// RegisterScheme adds a scheme config to the registry under its Name.
// Schemes are declarative data (SchemeConfig), so callers — in-module
// ablation variants and external users alike — register plain configs;
// after registration the scheme is addressable by name from WithScheme,
// Schemes() and every consumer binary. Registering an invalid config or an
// already-taken name is an error.
func RegisterScheme(s SchemeConfig) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := schemeReg[s.Name]; dup {
		return fmt.Errorf("%w: scheme %q already registered", ErrInvalidOption, s.Name)
	}
	schemeReg[s.Name] = s
	schemeOrder = append(schemeOrder, s.Name)
	return nil
}

// RegisterWorkload adds a workload profile to the registry under p.Name,
// making it addressable from WithWorkload and Workloads(). Registering an
// empty or already-taken name is an error.
func RegisterWorkload(p workload.Profile) error {
	if p.Name == "" {
		return fmt.Errorf("%w: workload with empty name", ErrInvalidOption)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := workloadReg[p.Name]; dup {
		return fmt.Errorf("%w: workload %q already registered", ErrInvalidOption, p.Name)
	}
	workloadReg[p.Name] = p
	workloadOrder = append(workloadOrder, p.Name)
	return nil
}

// Schemes lists every registered scheme in registration order (the paper's
// presentation order first, then extensions).
func Schemes() []SchemeInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]SchemeInfo, 0, len(schemeOrder))
	for _, name := range schemeOrder {
		out = append(out, toSchemeInfo(schemeReg[name]))
	}
	return out
}

// Workloads lists every registered workload in registration order (Table II
// order first, then extensions).
func Workloads() []WorkloadInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]WorkloadInfo, 0, len(workloadOrder))
	for _, name := range workloadOrder {
		out = append(out, toWorkloadInfo(workloadReg[name]))
	}
	return out
}

// DefaultSchemes returns the names of the six-plus-baseline schemes of the
// paper's headline figures (7-9), in presentation order.
func DefaultSchemes() []string {
	all := scheme.All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// LookupScheme returns the named scheme's metadata, or ErrUnknownScheme.
func LookupScheme(name string) (SchemeInfo, error) {
	s, err := schemeByName(name)
	if err != nil {
		return SchemeInfo{}, err
	}
	return toSchemeInfo(s), nil
}

// LookupWorkload returns the named workload's metadata, or
// ErrUnknownWorkload.
func LookupWorkload(name string) (WorkloadInfo, error) {
	p, err := workloadByName(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	return toWorkloadInfo(p), nil
}

// BuildImage generates the named workload's code image with the given seed.
// It is the escape hatch for tools that drive internal packages directly
// (boomtrace's image and walker statistics) while still resolving workloads
// through the public registry.
func BuildImage(workloadName string, imageSeed uint64) (*program.Image, error) {
	p, err := workloadByName(workloadName)
	if err != nil {
		return nil, err
	}
	return p.Image(imageSeed)
}

func schemeByName(name string) (scheme.Scheme, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := schemeReg[name]
	if !ok {
		return scheme.Scheme{}, fmt.Errorf("%w: %q (have: %s)",
			ErrUnknownScheme, name, strings.Join(sortedNames(schemeOrder), ", "))
	}
	return s, nil
}

func workloadByName(name string) (workload.Profile, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := workloadReg[name]
	if !ok {
		return workload.Profile{}, fmt.Errorf("%w: %q (have: %s)",
			ErrUnknownWorkload, name, strings.Join(sortedNames(workloadOrder), ", "))
	}
	return p, nil
}

func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// init seeds the registries with everything the paper evaluates: the six
// headline schemes plus the baseline, the limit studies of Figure 1, PIF,
// the hierarchical-BTB alternatives of Section II-C, the miss-policy
// variants, and the Table II workloads plus the SPEC-like contrast profile.
func init() {
	for _, s := range scheme.All() { // Base, Next Line, DIP, FDIP, SHIFT, Confluence, Boomerang
		mustRegister(RegisterScheme(s))
	}
	mustRegister(RegisterScheme(scheme.PIF()))
	mustRegister(RegisterScheme(scheme.PerfectL1I()))
	mustRegister(RegisterScheme(scheme.PerfectCF()))
	mustRegister(RegisterScheme(scheme.TwoLevelBTB()))
	mustRegister(RegisterScheme(scheme.PhantomBTBScheme()))
	mustRegister(RegisterScheme(scheme.BoomerangUnthrottled()))
	for _, n := range []int{0, 1, 2, 4, 8} { // Figure 10's throttle sweep
		s := scheme.BoomerangThrottled(n)
		s.Name = fmt.Sprintf("Boomerang-N%d", n) // the default N is otherwise named plain "Boomerang"
		mustRegister(RegisterScheme(s))
	}

	for _, p := range workload.Profiles { // Table II: Nutch, Streaming, Apache, Zeus, Oracle, DB2
		mustRegister(RegisterWorkload(p))
	}
	mustRegister(RegisterWorkload(workload.SPECLike()))
}
