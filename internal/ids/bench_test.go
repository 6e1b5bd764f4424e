package ids

import (
	"fmt"
	"testing"
)

func BenchmarkHash(b *testing.B) {
	data := []byte("urn:epc:id:sgtin:0614141.812345.999999999")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hash(data)
	}
}

func BenchmarkBetween(b *testing.B) {
	x := HashString("x")
	lo := HashString("lo")
	hi := HashString("hi")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Between(&x, &lo, &hi)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := HashString("x"), HashString("y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Add(y)
	}
}

func BenchmarkPrefixOf(b *testing.B) {
	id := HashString("object")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KeyOf(id, 13)
	}
}

func BenchmarkPrefixString(b *testing.B) {
	k := KeyOf(HashString("object"), 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.String()
	}
}

func BenchmarkGatewayID(b *testing.B) {
	ks := make([]PrefixKey, 64)
	for i := range ks {
		ks[i] = KeyOf(HashString(fmt.Sprint(i)), 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks[i%64].GatewayID()
	}
}
