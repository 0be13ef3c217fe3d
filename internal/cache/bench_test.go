package cache

import "testing"

var sinkResult Result

// BenchmarkCacheAccess times one Access on the GPU L2 geometry (512 KiB,
// 16 ways, 64-byte lines) over uniformly random addresses in an 8 MiB
// region, so most accesses miss and pick a victim in a full set.
func BenchmarkCacheAccess(b *testing.B) {
	c := MustNew("gpu-l2", 512*1024, 16, 64)
	state := uint64(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = splitmix(&state) % (8 << 20)
	}
	for _, a := range addrs {
		c.Access(a, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResult = c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}
