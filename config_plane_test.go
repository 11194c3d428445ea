package boomsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"boomsim"
)

// The config plane's contract: schemes are pure data. Every built-in
// scheme's SchemeConfig must survive a JSON round trip byte-identically,
// and a Simulation built from the round-tripped config must reproduce the
// golden stats corpus exactly — the two halves of "declarative configs are
// the schemes", with no hidden state living outside the serialized form.

// TestSchemeConfigsRoundTripJSON pins the serialization half: marshal →
// unmarshal → marshal is the identity on bytes for every registered scheme.
func TestSchemeConfigsRoundTripJSON(t *testing.T) {
	for _, info := range boomsim.Schemes() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			first, err := json.Marshal(info.Config)
			if err != nil {
				t.Fatal(err)
			}
			roundTripped, err := boomsim.ParseSchemeConfig(first)
			if err != nil {
				t.Fatalf("round-tripping %s: %v", first, err)
			}
			second, err := json.Marshal(roundTripped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("config did not round-trip byte-identically:\nfirst:  %s\nsecond: %s", first, second)
			}
		})
	}
}

// TestRoundTrippedConfigReproducesGolden pins the semantic half: running a
// golden cell from the JSON-round-tripped config (via WithSchemeConfig,
// bypassing the registry entirely) reproduces the checked-in golden corpus
// byte for byte.
func TestRoundTrippedConfigReproducesGolden(t *testing.T) {
	for _, info := range boomsim.Schemes() {
		info := info
		if len(info.Name) >= 4 && info.Name[:4] == "Test" {
			continue // other tests' registrations; not part of the corpus
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			raw, err := json.Marshal(info.Config)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := boomsim.ParseSchemeConfig(raw)
			if err != nil {
				t.Fatal(err)
			}
			s, err := boomsim.New(
				boomsim.WithSchemeConfig(cfg),
				boomsim.WithWorkload("Apache"),
				boomsim.WithFootprintKB(64),
				boomsim.WithWindow(5_000, 20_000),
				boomsim.WithSeeds(7, 11),
			)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			headline := r
			headline.Stats = nil
			got, err := json.MarshalIndent(headline, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(goldenFile(info.Name, "Apache"))
			if err != nil {
				t.Fatalf("reading golden cell: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("config-built run drifted from the registry-built golden corpus:\n%s",
					goldenDiff(t, want, got))
			}
		})
	}
}

// TestWithSchemeConfigCustomScheme pins the user story the config plane
// exists for: a novel scheme — a deeper-FTQ Boomerang variant no registry
// entry describes — loads from a JSON file and runs end to end, its inline
// config distinguishing its cache identity from the stock scheme's.
func TestWithSchemeConfigCustomScheme(t *testing.T) {
	cfg, err := boomsim.LoadSchemeConfig("testdata/schemes/boomerang-ftq64.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "Boomerang-FTQ64" {
		t.Fatalf("loaded scheme %q, want Boomerang-FTQ64", cfg.Name)
	}
	custom, err := boomsim.New(
		boomsim.WithSchemeConfig(cfg),
		boomsim.WithWorkload("Apache"),
		boomsim.WithFootprintKB(64),
		boomsim.WithWindow(5_000, 20_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := boomsim.New(
		boomsim.WithScheme("Boomerang"),
		boomsim.WithWorkload("Apache"),
		boomsim.WithFootprintKB(64),
		boomsim.WithWindow(5_000, 20_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Key() == stock.Key() {
		t.Error("inline scheme config must contribute to the simulation Key")
	}
	r, err := custom.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "Boomerang-FTQ64" {
		t.Errorf("result reports scheme %q, want the config's name", r.Scheme)
	}
	if r.Instructions < 20_000 {
		t.Errorf("custom scheme retired only %d instructions", r.Instructions)
	}
	if len(r.Stats) == 0 || r.Stats["boomerang.probes"] == 0 {
		t.Errorf("custom Boomerang variant published no boomerang-unit stats: %v", r.Stats)
	}
}

// TestParseSchemeConfigRejectsGarbage pins the strict decode: unknown
// fields and invalid kinds are configuration errors, not silent defaults.
func TestParseSchemeConfigRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{"name":"x","ftq_deepness":64}`,                                                            // typo'd field
		`{"name":"x","prefetcher":{"kind":"psychic"}}`,                                              // unknown kind
		`{"name":"x","miss_policy":{"kind":"boomerang","two_level":{"l2_entries":1,"l2_assoc":1}}}`, // mismatched params
		`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":16,"index_entries":8,"region_lines":4,"lookahead":8,"issue_rate":-1}}}`, // silently-disabling issue rate
		`{"ftq_depth":8}`, // no name
		// Sizes that would panic, spin or exhaust memory in Build or the run.
		`{"name":"x","btb_entries":4611686018427387904}`,
		`{"name":"x","btb_entries":1048577}`,
		`{"name":"x","ftq_depth":1025}`,
		`{"name":"x","prefetcher":{"kind":"next-line","degree":1025}}`,
		`{"name":"x","prefetcher":{"kind":"dip","table_entries":4611686018427387904}}`,
		`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":4611686018427387904,"index_entries":8,"region_lines":4,"lookahead":8}}}`,
		`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":16,"index_entries":1048577,"region_lines":4,"lookahead":8}}}`,
		`{"name":"x","prefetcher":{"kind":"temporal","temporal":{"history_entries":16,"index_entries":8,"region_lines":4,"lookahead":1025}}}`,
		`{"name":"x","miss_policy":{"kind":"boomerang","boomerang":{"throttle_n":1025,"max_scan_lines":4}}}`,
		`{"name":"x","miss_policy":{"kind":"boomerang","boomerang":{"max_scan_lines":4,"predecode_latency":4097}}}`,
		`{"name":"x","miss_policy":{"kind":"two-level","two_level":{"l2_entries":4611686018427387904,"l2_assoc":4}}}`,
		`{"name":"x","miss_policy":{"kind":"two-level","two_level":{"l2_entries":4096,"l2_assoc":1025}}}`,
		`{"name":"x","miss_policy":{"kind":"two-level","two_level":{"l2_entries":4096,"l2_assoc":4,"l2_latency":4097}}}`,
	} {
		if _, err := boomsim.ParseSchemeConfig([]byte(bad)); err == nil {
			t.Errorf("ParseSchemeConfig(%s) accepted garbage", bad)
		}
	}
}

// TestSchemeConfigRejectsNonFiniteStorage pins that a storage overhead JSON
// cannot carry is a configuration error at New and RegisterScheme, not a
// panic later in Key. JSON has no NaN, so ParseSchemeConfig cannot take
// these cases.
func TestSchemeConfigRejectsNonFiniteStorage(t *testing.T) {
	for _, kb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := boomsim.SchemeConfig{Name: fmt.Sprintf("storage-%v", kb), FTQDepth: 32, StorageOverheadKB: kb}
		if _, err := boomsim.New(boomsim.WithSchemeConfig(cfg)); !errors.Is(err, boomsim.ErrInvalidOption) {
			t.Errorf("New with storage_overhead_kb %v: err = %v, want ErrInvalidOption", kb, err)
		}
		if err := boomsim.RegisterScheme(cfg); !errors.Is(err, boomsim.ErrInvalidOption) {
			t.Errorf("RegisterScheme with storage_overhead_kb %v: err = %v, want ErrInvalidOption", kb, err)
		}
	}
}
