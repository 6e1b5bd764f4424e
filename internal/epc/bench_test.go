package epc

import "testing"

func BenchmarkGeneratorNextURN(b *testing.B) {
	g := NewGenerator(1, 8, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.NextURN()
	}
}
