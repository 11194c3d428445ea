package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a workload's output digest with the one checked in
// under -expected, or rewrites it there with -update. The simulated inputs
// do not depend on --seed, so every run has a reference.
func (r *runner) checkDigest(digest string) error {
	key := r.opts.workload
	if r.opts.quick {
		key += "/quick"
	}
	want := map[string]string{}
	raw, err := os.ReadFile(r.opts.expected)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("parsing %s: %w", r.opts.expected, err)
		}
	case errors.Is(err, fs.ErrNotExist) && r.opts.update:
	default:
		return fmt.Errorf("reading expected digests: %w", err)
	}
	if r.opts.update {
		want[key] = digest
		return writeDigests(r.opts.expected, want)
	}
	switch got, ok := want[key]; {
	case !ok:
		r.fail("no expected digest for %s in %s (run with -update)", key, r.opts.expected)
	case got != digest:
		r.fail("output digest %s differs from the checked-in %s for %s", digest, got, key)
	}
	return nil
}

func writeDigests(path string, m map[string]string) error {
	b, err := json.MarshalIndent(m, "", "  ") // sorted by key
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
