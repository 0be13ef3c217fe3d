package gpu_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDeviceStats pins the complete Stats (attribution included) of
// every Table IV GPU configuration on every kernel, so a change to the
// scheduler or the cache model that alters any simulated number shows up
// as a diff. Kernels are shrunk to keep the test fast; they still launch
// more wavefronts than AdvHet-2X's 16 CUs hold, so admission is covered.
func TestGoldenDeviceStats(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range hetsim.GPUConfigs() {
		for _, k := range gpu.Kernels() {
			k.Wavefronts /= 2
			k.InstsPerWave /= 4
			d, err := gpu.NewDevice(c.Dev, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %+v\n", c.Name, k.Name, d.Run())
		}
	}
	checkGolden(t, "device_stats.golden", buf.Bytes())
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
		t.Fatalf("%v (run 'go test ./internal/gpu -run Golden -update' to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
