package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"boomsim"
)

// A cold pass runs the sweep grid in a fresh process of this binary, as a
// one-shot CLI sweep does: the image cache and the warm arena start empty,
// so every profile's image is generated, every scheme built, and every cell
// warmed into the arena and then forked, with the public API's defaults.
// The parent starts the child with coldPassEnv set, writes a coldRequest to
// its standard input and reads a coldReply from its standard output.
const coldPassEnv = "BOOMSIM_BENCH_COLD_PASS"

type coldRequest struct {
	Cells []cell `json:"cells"`
	Perm  []int  `json:"perm"`  // order in which RunMatrix receives the cells
	Trace bool   `json:"trace"` // return RunMatrix's per-cell spans
}

type coldReply struct {
	MS         float64         `json:"ms"`          // building the simulations and RunMatrix
	ResidentMB float64         `json:"resident_mb"` // the child's resident set after the pass
	Results    json.RawMessage `json:"results"`     // []boomsim.Result in the cells' order
	Trace      json.RawMessage `json:"trace,omitempty"`
}

// coldPass runs one cold pass in a child process and waits for it to exit.
func coldPass(cells []cell, perm []int, traced bool) (coldReply, error) {
	var rep coldReply
	req, err := json.Marshal(coldRequest{Cells: cells, Perm: perm, Trace: traced})
	if err != nil {
		return rep, err
	}
	exe, err := os.Executable()
	if err != nil {
		return rep, fmt.Errorf("cold pass: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coldPassEnv+"=1")
	cmd.Stdin = bytes.NewReader(req)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("cold pass: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("cold pass reply: %w", err)
	}
	return rep, nil
}

// coldPassMain is the child's side of coldPass.
func coldPassMain(in io.Reader, out io.Writer) int {
	if err := serveColdPass(in, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench cold pass:", err)
		return 1
	}
	return 0
}

func serveColdPass(in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(procs)
	var req coldRequest
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	var opts []boomsim.MatrixOption
	var tr *boomsim.Trace
	if req.Trace {
		tr = boomsim.NewTrace()
		opts = append(opts, boomsim.WithMatrixTrace(tr))
	}
	start := time.Now()
	all, err := sims(req.Cells)
	if err != nil {
		return err
	}
	res, err := runMatrix(all, req.Perm, opts...)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if err := checkGrid(req.Cells, res); err != nil {
		return err
	}
	rep := coldReply{MS: ms(elapsed)}
	if rep.Results, err = json.Marshal(res); err != nil {
		return err
	}
	if tr != nil {
		if rep.Trace, err = chromeJSON(tr); err != nil {
			return err
		}
	}
	if rep.ResidentMB, err = residentMB(); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(rep)
}
