package expand_test

import (
	"fmt"
	"testing"

	"scaldtv/internal/expand"
	"scaldtv/internal/gen"
	"scaldtv/internal/hdl"
)

// BenchmarkExpand measures Pass 1 + Pass 2 and netlist.Builder.Build on a
// pre-parsed generated design: the "macro expander" row of Table 3-1.
func BenchmarkExpand(b *testing.B) {
	for _, chips := range []int{1003, 10009} {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			f, err := hdl.Parse(gen.Source(gen.Config{Chips: chips}))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := expand.Expand(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
