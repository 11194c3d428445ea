// Command boomtrace inspects the workload substrate: static code-image
// statistics and dynamic execution properties (the quantities the profiles
// are calibrated against).
//
// Examples:
//
//	boomtrace -workload DB2 -info
//	boomtrace -workload Apache -dynamic -steps 500000   # Figure 4 CDF
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"boomsim"
	"boomsim/internal/isa"
	"boomsim/internal/program"
)

func main() {
	var (
		wlName  = flag.String("workload", "Apache", "workload profile")
		seed    = flag.Uint64("image-seed", 1, "code image seed")
		walk    = flag.Uint64("walk-seed", 1, "execution seed")
		steps   = flag.Uint64("steps", 200_000, "basic blocks to execute")
		info    = flag.Bool("info", false, "print static image statistics")
		dynamic = flag.Bool("dynamic", false, "print dynamic execution statistics")
	)
	flag.Parse()

	w, err := boomsim.LookupWorkload(*wlName)
	if err != nil {
		fatalf("%v", err)
	}
	img, err := boomsim.BuildImage(*wlName, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	ran := false
	if *info {
		ran = true
		st := img.ComputeStats()
		fmt.Printf("%s — %s\n", w.Name, w.Description)
		fmt.Printf("  text segment   %d KB (%#x .. %#x)\n", img.Bytes()/1024, img.Base, img.Limit)
		fmt.Printf("  functions      %d across %d layers\n", st.Functions, img.Modules)
		fmt.Printf("  basic blocks   %d (mean %.2f instructions)\n", st.Blocks, st.MeanBlock)
		fmt.Printf("  branch mix     cond=%d jump=%d call=%d ret=%d ijump=%d icall=%d\n",
			st.ByKind[isa.CondDirect], st.ByKind[isa.UncondDirect], st.ByKind[isa.CallDirect],
			st.ByKind[isa.Return], st.ByKind[isa.IndirectJump], st.ByKind[isa.IndirectCall])
	}

	if *dynamic {
		ran = true
		wk := program.NewWalker(img, *walk)
		st := program.Measure(wk, *steps, 9)
		fmt.Printf("%s dynamic over %d blocks (%d instructions):\n", w.Name, st.Steps, st.Instrs)
		fmt.Printf("  mean block       %.2f instructions\n", float64(st.Instrs)/float64(st.Steps))
		fmt.Printf("  conditionals     %d (%.1f%% taken)\n", st.CondBranches,
			100*float64(st.TakenConds)/float64(st.CondBranches))
		fmt.Printf("  calls/returns    %d/%d (max depth %d)\n", st.Calls, st.Returns, wk.MaxCallDepthSeen())
		fmt.Printf("  touched code     %d KB\n", st.TouchedLines*64/1024)
		// Figure 4: the share of taken conditionals whose target lies within
		// N cache blocks of the branch, N = 0..7 and 8 or more.
		fmt.Printf("  taken-cond CDF  ")
		for n, v := range program.CDF(st.TakenCondDist) {
			label := strconv.Itoa(n)
			if n == len(st.TakenCondDist)-1 {
				label += "+"
			}
			fmt.Printf(" %s:%.2f", label, v)
		}
		fmt.Printf(" (Figure 4, blocks)\n")
	}

	if !ran {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -info or -dynamic")
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "boomtrace: "+format+"\n", args...)
	os.Exit(1)
}
