package tape

import (
	"fmt"
	"testing"
)

// BenchmarkTapeCompile measures Compile of a pre-expanded, pre-levelized
// generated design: the tape layer a never-seen design pays, without the
// levelization it reuses.
func BenchmarkTapeCompile(b *testing.B) {
	for _, chips := range []int{1003, 10009} {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			d := testDesign(b, chips)
			d.Levelization()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
