package stats

import "testing"

func TestSpeedupAndCoverage(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"speedup", Speedup(0.5, 0.75), 1.5},
		{"speedup of a stalled baseline", Speedup(0, 0.75), 0},
		{"coverage", Coverage(400, 1000, 100, 1000), 0.75},
		{"coverage normalises per instruction", Coverage(400, 1000, 200, 4000), 0.875},
		{"coverage below the floor", Coverage(1, 1000, 0, 1000), 0},
		{"coverage of an empty baseline", Coverage(400, 0, 100, 1000), 0},
		{"coverage of a slower run", Coverage(250, 1000, 500, 1000), -1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
