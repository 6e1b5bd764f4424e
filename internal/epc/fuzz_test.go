package epc

import "testing"

// Fuzz targets for the wire-format parsers: any input must either fail
// cleanly or produce a value that re-encodes to the same bytes/string.

func FuzzParseHex(f *testing.F) {
	f.Add("303AD2B8E5636CC0806A54D2")
	f.Add("000000000000000000000000")
	f.Add("zz")
	f.Fuzz(func(t *testing.T, s string) {
		tag, err := ParseHex(s)
		if err != nil {
			return
		}
		h, err := tag.Hex()
		if err != nil {
			t.Fatalf("parsed tag does not re-encode: %v", err)
		}
		back, err := ParseHex(h)
		if err != nil || back != tag {
			t.Fatalf("hex round trip unstable: %q -> %+v -> %q", s, tag, h)
		}
	})
}

func FuzzParseURN(f *testing.F) {
	f.Add("urn:epc:id:sgtin:0614141.812345.6789")
	f.Add("urn:epc:id:sgtin:a.b.c")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tag, err := ParseURN(s)
		if err != nil {
			return
		}
		u, err := tag.URN()
		if err != nil {
			t.Fatalf("parsed tag does not re-render: %v", err)
		}
		back, err := ParseURN(u)
		if err != nil || back != tag {
			t.Fatalf("urn round trip unstable: %q -> %+v -> %q", s, tag, u)
		}
	})
}

func FuzzDecode(f *testing.F) {
	valid, _ := (SGTIN96{Filter: 1, Partition: 5, CompanyPrefix: 614141, ItemReference: 812345, Serial: 6789}).Encode()
	f.Add(valid[:])
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) != 12 {
			return
		}
		var b [12]byte
		copy(b[:], raw)
		tag, err := Decode(b)
		if err != nil {
			return
		}
		re, err := tag.Encode()
		if err != nil {
			t.Fatalf("decoded tag does not re-encode: %v", err)
		}
		// Re-encoding zeroes nothing: SGTIN-96 uses all 96 bits, so the
		// bytes must match exactly.
		if re != b {
			t.Fatalf("decode/encode not inverse: %x -> %+v -> %x", b, tag, re)
		}
	})
}
