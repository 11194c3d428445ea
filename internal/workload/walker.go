// The oracle walker lives in internal/program (it executes a code image and
// depends on nothing workload-specific); this file re-exports it under the
// names this package historically owned so profile-centric callers can keep
// saying workload.NewWalker.
package workload

import "boomsim/internal/program"

// Walker deterministically executes a code image along the architecturally
// correct path.
type Walker = program.Walker

// NewWalker starts execution at the image's root dispatcher.
func NewWalker(img *program.Image, seed uint64) *Walker {
	return program.NewWalker(img, seed)
}
