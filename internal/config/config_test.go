package config

import (
	"math"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.FetchWidth != 3 || c.RetireWidth != 3 {
		t.Error("Table I core is 3-way")
	}
	if c.ROBSize != 128 {
		t.Error("Table I ROB is 128 entries")
	}
	if c.L1ISizeKB != 32 || c.L1IAssoc != 2 || c.L1ILatency != 2 {
		t.Error("Table I L1-I is 32KB/2-way/2-cycle")
	}
	if c.PrefetchBufEntries != 64 {
		t.Error("Table I prefetch buffer is 64 entries")
	}
	if c.BTBEntries != 2048 {
		t.Error("Table I BTB is 2K entries")
	}
	if c.LLCLatency != 30 {
		t.Error("mesh average LLC round trip should be 30 cycles")
	}
	if c.MemLatency != 90 {
		t.Error("45ns at 2GHz is 90 cycles")
	}
	if c.FTQDepth != 32 {
		t.Error("FDIP/Boomerang FTQ is 32 entries")
	}
	if c.BTBPrefetchBufEntries != 32 {
		t.Error("Boomerang BTB prefetch buffer is 32 entries")
	}
	if c.TAGEStorageKB != 8 {
		t.Error("TAGE budget is 8KB")
	}
}

func TestWithBTB(t *testing.T) {
	base := Default()
	mod := base.WithBTB(32768)
	if mod.BTBEntries != 32768 {
		t.Error("WithBTB did not apply")
	}
	if base.BTBEntries != 2048 {
		t.Error("WithBTB mutated the receiver")
	}
}

func TestWithLLCLatency(t *testing.T) {
	base := Default()
	mod := base.WithLLCLatency(18)
	if mod.LLCLatency != 18 {
		t.Error("WithLLCLatency did not apply")
	}
	if base.LLCLatency != 30 {
		t.Error("WithLLCLatency mutated the receiver")
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	cases := []func(*Core){
		func(c *Core) { c.FetchWidth = 0 },
		func(c *Core) { c.RetireWidth = -1 },
		func(c *Core) { c.BackendDepth = 0 },
		func(c *Core) { c.ROBSize = 1 },
		func(c *Core) { c.FTQDepth = 0 },
		func(c *Core) { c.L1ISizeKB = 0 },
		func(c *Core) { c.L1IAssoc = 256 },
		func(c *Core) { c.L1ILatency = 0 },
		func(c *Core) { c.MSHREntries = 0 },
		func(c *Core) { c.LLCLatency = 0 },
		func(c *Core) { c.LLCLatency = 4097 },
		func(c *Core) { c.LLCSizeKB = 0 },
		func(c *Core) { c.LLCAssoc = 256 },
		func(c *Core) { c.MemLatency = -5 },
		func(c *Core) { c.BTBEntries = 0 },
		func(c *Core) { c.BTBEntries = 1<<20 + 1 },
		func(c *Core) { c.BTBEntries = math.MaxInt },
		func(c *Core) { c.BTBAssoc = 0 },
		func(c *Core) { c.RASDepth = 0 },
		func(c *Core) { c.PrefetchProbesPerCycle = 0 },
		func(c *Core) { c.TAGEStorageKB = 0 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
