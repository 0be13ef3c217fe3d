package cache

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenAccessStream pins every Access Result, every Invalidate
// outcome and the final Stats and Occupancy of a seeded read / write /
// Invalidate / MarkDirty stream on direct-mapped, 4-way and 16-way
// geometries. The stream's address space is three times each cache's
// capacity, so hits, clean and dirty evictions and fills into invalidated
// holes all occur. Each geometry with more than one way starts with a set
// whose first way is invalidated in front of a valid line that is then
// hit, and a miss that must refill that hole rather than evict.
func TestGoldenAccessStream(t *testing.T) {
	var buf bytes.Buffer
	for _, g := range []struct{ sets, ways int }{{8, 1}, {4, 4}, {2, 16}} {
		const lineSize = 64
		c := MustNew("golden", g.sets*g.ways*lineSize, g.ways, lineSize)
		fmt.Fprintf(&buf, "== %d sets x %d ways\n", g.sets, g.ways)
		access := func(addr uint64, write bool) {
			fmt.Fprintf(&buf, "access %#x write=%v %+v\n", addr, write, c.Access(addr, write))
		}
		line := func(i int) uint64 { return uint64(i) * lineSize }
		if g.ways > 1 {
			for w := 0; w < g.ways; w++ {
				access(line(w*g.sets), w%2 == 1)
			}
			present, dirty := c.Invalidate(line(0))
			fmt.Fprintf(&buf, "invalidate %#x present=%v dirty=%v\n", line(0), present, dirty)
			access(line((g.ways-1)*g.sets), false)
			access(line(g.ways*g.sets), true)
		}
		state := uint64(0x5eed) + uint64(g.ways)
		for i := 0; i < 400; i++ {
			r := splitmix(&state)
			addr := line(int(r>>8)%(3*g.sets*g.ways)) + (r>>40)%lineSize
			switch op := r % 20; {
			case op < 11:
				access(addr, false)
			case op < 16:
				access(addr, true)
			case op < 18:
				present, dirty := c.Invalidate(addr)
				fmt.Fprintf(&buf, "invalidate %#x present=%v dirty=%v\n", addr, present, dirty)
			default:
				c.MarkDirty(addr)
				fmt.Fprintf(&buf, "markdirty %#x\n", addr)
			}
		}
		fmt.Fprintf(&buf, "stats %+v occupancy %.6f\n", c.Stats(), c.Occupancy())
	}
	checkGolden(t, "access_stream.golden", buf.Bytes())
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/cache -run Golden -update' to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
