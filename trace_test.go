package boomsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"regexp"
	"strings"
	"testing"

	"boomsim"
)

// chromeEvent mirrors one Chrome trace_event for assertions; chromeTrace is
// the document WriteChromeTrace emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func decodeTrace(t *testing.T, tr *boomsim.Trace) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeTrace
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("trace output is not the expected Chrome trace JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// cellSpans filters the complete "cell" events out of a trace document.
func cellSpans(doc chromeTrace) []chromeEvent {
	var out []chromeEvent
	for _, ev := range doc.TraceEvents {
		if ev.Name == "cell" && ev.Ph == "X" {
			out = append(out, ev)
		}
	}
	return out
}

// TestMatrixTraceLocal pins the local sweep path: one "cell" span per
// simulation, each stamped with the trace's ID and the cell's
// scheme/workload/warm-source, and the whole document Perfetto-shaped.
func TestMatrixTraceLocal(t *testing.T) {
	var sims []*boomsim.Simulation
	for _, sch := range []string{"Base", "FDIP", "Boomerang"} {
		sims = append(sims, mustSim(t, boomsim.WithScheme(sch)))
	}
	tr := boomsim.NewTrace()
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(tr.ID()) {
		t.Fatalf("trace ID %q is not 32 hex digits", tr.ID())
	}
	if _, err := boomsim.RunMatrix(context.Background(), sims, boomsim.WithMatrixTrace(tr)); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, tr)
	cells := cellSpans(doc)
	if len(cells) != len(sims) {
		t.Fatalf("trace holds %d cell spans, want %d", len(cells), len(sims))
	}
	for _, ev := range cells {
		if got := ev.Args["trace_id"]; got != tr.ID() {
			t.Errorf("cell span trace_id = %v, want %s", got, tr.ID())
		}
		if ev.Args["warm"] != "fork" && ev.Args["warm"] != "fresh" {
			t.Errorf("cell span warm = %v, want fork or fresh", ev.Args["warm"])
		}
		if ev.Dur == nil || ev.TS == nil {
			t.Errorf("cell span missing ts/dur: %+v", ev)
		}
	}
}

// TestClusterTraceEndToEnd is the sweep-tracing acceptance test: a matrix
// sharded over three real workers produces one merged trace in which every
// cell appears exactly once as a complete span — queue and dispatch phases
// attached on the same row — and every span carries the one trace ID the
// cluster minted, no matter which worker ran the cell.
func TestClusterTraceEndToEnd(t *testing.T) {
	workers := startWorkers(t, 3)
	var sims []*boomsim.Simulation
	for _, sch := range []string{"Base", "FDIP", "Boomerang"} {
		for _, wl := range []string{"Apache", "DB2"} {
			sims = append(sims, mustSim(t, boomsim.WithScheme(sch), boomsim.WithWorkload(wl)))
		}
	}
	tr := boomsim.NewTrace()
	cl, err := boomsim.NewCluster(
		boomsim.WithEndpoints(endpoints(workers)...),
		boomsim.WithClusterTrace(tr),
		boomsim.WithBatchSize(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunMatrix(context.Background(), sims); err != nil {
		t.Fatal(err)
	}

	doc := decodeTrace(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	// Every cell exactly once, keyed by the cell's fingerprint.
	want := map[string]bool{}
	for _, s := range sims {
		want[s.Fingerprint()] = false
	}
	phases := map[int]map[string]bool{} // tid -> phase names seen
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if got := ev.Args["trace_id"]; got != tr.ID() {
			t.Fatalf("span %q trace_id = %v, want %s", ev.Name, got, tr.ID())
		}
		if ev.Cat == "phase" {
			if phases[ev.TID] == nil {
				phases[ev.TID] = map[string]bool{}
			}
			phases[ev.TID][ev.Name] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "cell" || ev.Ph != "X" {
			continue
		}
		key, _ := ev.Args["key"].(string)
		seen, ok := want[key]
		if !ok {
			t.Fatalf("cell span for unknown key %q", key)
		}
		if seen {
			t.Fatalf("cell %q appears more than once in the merged trace", key)
		}
		want[key] = true
		if phases[ev.TID] == nil || !phases[ev.TID]["queue"] || !phases[ev.TID]["dispatch"] {
			t.Errorf("cell %q (tid %d) is missing queue/dispatch phase spans", key, ev.TID)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("cell %q never appeared in the merged trace", key)
		}
	}
}

// TestClusterStatsCellCounters pins the satellite contract that cell-level
// counters exist with tracing entirely off: a sweep still reports how many
// cells settled and the slowest-cells leaderboard.
func TestClusterStatsCellCounters(t *testing.T) {
	workers := startWorkers(t, 2)
	var sims []*boomsim.Simulation
	for _, sch := range []string{"Base", "FDIP", "Boomerang"} {
		sims = append(sims, mustSim(t, boomsim.WithScheme(sch)))
	}
	cl, err := boomsim.NewCluster(boomsim.WithEndpoints(endpoints(workers)...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunMatrix(context.Background(), sims); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.CellsTotal != uint64(len(sims)) {
		t.Errorf("CellsTotal = %d, want %d", st.CellsTotal, len(sims))
	}
	if st.SlowestCellMS <= 0 {
		t.Errorf("SlowestCellMS = %v, want > 0", st.SlowestCellMS)
	}
	if len(st.SlowestCells) == 0 {
		t.Error("SlowestCells is empty; want the leaderboard populated")
	} else if st.SlowestCells[0].MS != st.SlowestCellMS {
		t.Errorf("leaderboard head %v != SlowestCellMS %v", st.SlowestCells[0].MS, st.SlowestCellMS)
	}
}

// TestWithFlightRecorderOnResult pins the public flight-recorder contract:
// epochs ride on Result, exactly tile the measurement window, and
// participate in the configuration Key (a recorded result is a different
// cacheable artifact from an unrecorded one).
func TestWithFlightRecorderOnResult(t *testing.T) {
	plain := mustSim(t)
	rec := mustSim(t, boomsim.WithFlightRecorder(500))
	if plain.Key() == rec.Key() {
		t.Fatal("WithFlightRecorder did not change the configuration Key")
	}
	r, err := rec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) == 0 {
		t.Fatal("recorded run carries no epochs")
	}
	var cycles, instrs uint64
	var cursor int64
	for i, e := range r.Epochs {
		if e.StartCycle != cursor {
			t.Fatalf("epoch %d starts at cycle %d, want %d (epochs must tile the window)",
				i, e.StartCycle, cursor)
		}
		cursor += e.Cycles
		cycles += uint64(e.Cycles)
		instrs += e.Instructions
	}
	if instrs != r.Instructions {
		t.Errorf("epoch instruction sum %d != result total %d", instrs, r.Instructions)
	}

	// Epochs survive the Result JSON round trip like every other field.
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back boomsim.Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Epochs) != len(r.Epochs) || back.Epochs[0] != r.Epochs[0] {
		t.Error("epochs did not survive the JSON round trip")
	}

	// And the recorder must not perturb the simulation itself.
	p, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.IPC != r.IPC || p.Cycles != r.Cycles || p.Instructions != r.Instructions {
		t.Errorf("recorded run diverged: IPC %v vs %v, cycles %d vs %d",
			r.IPC, p.IPC, r.Cycles, p.Cycles)
	}
}

// TestFlightRecorderOverflowIsInvalidOption pins the public side of the
// recorder bound: epochs too fine for the window fail Run with
// ErrInvalidOption naming the full recorder, and no partial timeline comes
// back with the error.
func TestFlightRecorderOverflowIsInvalidOption(t *testing.T) {
	s := mustSim(t, boomsim.WithWindow(0, 100_000), boomsim.WithFlightRecorder(1))
	r, err := s.Run(context.Background())
	if !errors.Is(err, boomsim.ErrInvalidOption) || !strings.Contains(err.Error(), "flight recorder full") {
		t.Fatalf("err = %v, want ErrInvalidOption naming the full recorder", err)
	}
	if r.Epochs != nil || r.Instructions != 0 {
		t.Fatalf("failed run returned a result with %d epochs over %d instructions", len(r.Epochs), r.Instructions)
	}
}
