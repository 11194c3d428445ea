package boomsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"boomsim/internal/btb"
	"boomsim/internal/core"
	"boomsim/internal/prefetch"
	"boomsim/internal/scheme"
)

// SchemeConfig is the complete, declarative description of a control-flow-
// delivery scheme: name, FTQ depth, prefetcher kind and parameters, BTB
// organisation, miss policy, predictor, and the paper's Section VI-D
// storage-overhead accounting. Every built-in scheme is a SchemeConfig
// value (Schemes exposes them), and users compose novel scenarios — deeper
// FTQs, different prefetcher pairings, custom Boomerang throttle policies —
// as plain data, in Go or in JSON scheme files, without touching the
// simulator's internals. Run one with WithSchemeConfig or register it under
// its name with RegisterScheme.
//
// SchemeConfig round-trips through JSON byte-identically, and two configs
// with equal JSON build identical machines, so configs are safe to store,
// diff and ship across the wire to boomsimd workers.
type SchemeConfig = scheme.Config

// SchemePrefetcher configures a SchemeConfig's history-based L1-I
// prefetcher (kinds: "next-line", "dip", "temporal").
type SchemePrefetcher = scheme.PrefetcherConfig

// SchemeMissPolicy configures a SchemeConfig's BTB miss policy (kinds:
// "boomerang", "two-level", "perfect").
type SchemeMissPolicy = scheme.MissPolicyConfig

// SchemeTwoLevelBTB sizes a SchemeMissPolicy's hierarchical BTB.
type SchemeTwoLevelBTB = btb.TwoLevelConfig

// BoomerangParams tunes a "boomerang" miss policy (throttle depth,
// predecode latency, scan bound, prefetch buffer size, unthrottled mode).
type BoomerangParams = core.Config

// TemporalParams sizes a "temporal" prefetcher (PIF/SHIFT history geometry).
type TemporalParams = prefetch.TemporalConfig

// ParseSchemeConfig decodes and validates one JSON scheme definition —
// the format boomctl -scheme-file and boomsimd's scheme_config wire field
// carry. Unknown fields are rejected so typos surface instead of silently
// building the wrong machine; validation failures wrap ErrInvalidOption.
func ParseSchemeConfig(data []byte) (SchemeConfig, error) {
	var cfg SchemeConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return SchemeConfig{}, fmt.Errorf("%w: decoding scheme config: %v", ErrInvalidOption, err)
	}
	if err := cfg.Validate(); err != nil {
		return SchemeConfig{}, fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return cfg, nil
}

// LoadSchemeConfig reads a JSON scheme file from disk (see EXPERIMENTS.md
// for the authoring guide).
func LoadSchemeConfig(path string) (SchemeConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SchemeConfig{}, fmt.Errorf("reading scheme file: %w", err)
	}
	cfg, err := ParseSchemeConfig(data)
	if err != nil {
		return SchemeConfig{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
