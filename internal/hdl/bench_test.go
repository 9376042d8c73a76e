package hdl_test

import (
	"fmt"
	"testing"

	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
)

// BenchmarkParse measures the reader alone on generated two-case
// sources: the "read" row of Table 3-1.  Its allocation count is gated
// in CI, since it repeats across hosts where ns/op does not.
func BenchmarkParse(b *testing.B) {
	for _, chips := range []int{1003, 10009} {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			src := gen.Source(gen.Config{Chips: chips, Cases: 2})
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hdl.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
