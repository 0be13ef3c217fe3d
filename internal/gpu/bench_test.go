package gpu

import "testing"

var sinkStats Stats

// BenchmarkDeviceRun times one full kernel launch on the BaseCMOS device:
// MatrixMultiplication is FMA-dense and compute-bound, Histogram is
// memory-bound with scattered accesses.
func BenchmarkDeviceRun(b *testing.B) {
	for _, name := range []string{"MatrixMultiplication", "Histogram"} {
		k, err := KernelByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := NewDevice(DefaultConfig(), k, 1)
				if err != nil {
					b.Fatal(err)
				}
				sinkStats = d.Run()
			}
		})
	}
}
