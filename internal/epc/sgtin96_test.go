package epc

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// urnFields splits a rendered SGTIN URN back into its company prefix,
// item reference and serial digit strings.
func urnFields(t *testing.T, u string) (company, item, serial string) {
	t.Helper()
	rest, ok := strings.CutPrefix(u, "urn:epc:id:sgtin:")
	if !ok {
		t.Fatalf("urn %q lacks the sgtin prefix", u)
	}
	parts := strings.Split(rest, ".")
	if len(parts) != 3 {
		t.Fatalf("urn %q has %d fields, want 3", u, len(parts))
	}
	return parts[0], parts[1], parts[2]
}

func parseField(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("urn field %q: %v", s, err)
	}
	return v
}

// A tag survives URN rendering: the literal string is pinned, and
// reading its fields back yields the tag's own values.
func TestURNRoundTrip(t *testing.T) {
	tag := SGTIN96{Filter: 1, Partition: 5, CompanyPrefix: 614141, ItemReference: 812345, Serial: 6789}
	u, err := tag.URN()
	if err != nil {
		t.Fatal(err)
	}
	want := "urn:epc:id:sgtin:0614141.812345.6789"
	if u != want {
		t.Fatalf("urn = %q, want %q", u, want)
	}
	company, item, serial := urnFields(t, u)
	got := SGTIN96{Filter: tag.Filter, Partition: tag.Partition,
		CompanyPrefix: parseField(t, company), ItemReference: parseField(t, item), Serial: parseField(t, serial)}
	if got != tag {
		t.Fatalf("urn round trip: got %+v want %+v", got, tag)
	}
}

// Every partition, at the largest company prefix and item reference its
// bit and digit budgets allow, renders fields of exactly the partition's
// digit widths that read back to the tag's values.
func TestAllPartitionsRoundTrip(t *testing.T) {
	for part := 0; part < 7; part++ {
		p := partitions[part]
		company := pow10(p.companyDigits) - 1
		if company >= 1<<p.companyBits {
			company = 1<<p.companyBits - 1
		}
		item := pow10(p.itemDigits) - 1
		if item >= 1<<p.itemBits {
			item = 1<<p.itemBits - 1
		}
		tag := SGTIN96{Filter: 2, Partition: uint8(part), CompanyPrefix: company, ItemReference: item, Serial: 42}
		u, err := tag.URN()
		if err != nil {
			t.Fatalf("partition %d urn: %v", part, err)
		}
		c, i, s := urnFields(t, u)
		if len(c) != p.companyDigits || len(i) != p.itemDigits {
			t.Fatalf("partition %d: urn %q has %d/%d digits, want %d/%d",
				part, u, len(c), len(i), p.companyDigits, p.itemDigits)
		}
		got := SGTIN96{Filter: tag.Filter, Partition: tag.Partition,
			CompanyPrefix: parseField(t, c), ItemReference: parseField(t, i), Serial: parseField(t, s)}
		if got != tag {
			t.Fatalf("partition %d: got %+v want %+v", part, got, tag)
		}
	}
}

// The URN is the only form a tag leaves this package in, so its
// rendering is pinned literally: partition-determined zero padding of
// the company prefix and item reference, the serial unpadded.
func TestURNAllPartitions(t *testing.T) {
	cases := []struct {
		tag  SGTIN96
		want string
	}{
		{SGTIN96{Filter: 1, Partition: 0, CompanyPrefix: 614141, ItemReference: 8, Serial: 42}, "urn:epc:id:sgtin:000000614141.8.42"},
		{SGTIN96{Filter: 1, Partition: 1, CompanyPrefix: 614141, ItemReference: 1, Serial: 42}, "urn:epc:id:sgtin:00000614141.01.42"},
		{SGTIN96{Filter: 2, Partition: 2, CompanyPrefix: 614141, ItemReference: 12, Serial: 0}, "urn:epc:id:sgtin:0000614141.012.0"},
		{SGTIN96{Filter: 3, Partition: 3, CompanyPrefix: 614141, ItemReference: 123, Serial: 42}, "urn:epc:id:sgtin:000614141.0123.42"},
		{SGTIN96{Filter: 1, Partition: 4, CompanyPrefix: 614141, ItemReference: 1234, Serial: 42}, "urn:epc:id:sgtin:00614141.01234.42"},
		{SGTIN96{Filter: 1, Partition: 5, CompanyPrefix: 614141, ItemReference: 812345, Serial: 6789}, "urn:epc:id:sgtin:0614141.812345.6789"},
		{SGTIN96{Filter: 7, Partition: 6, CompanyPrefix: 614141, ItemReference: 12345, Serial: maxSerial}, "urn:epc:id:sgtin:614141.0012345.274877906943"},
	}
	for _, c := range cases {
		got, err := c.tag.URN()
		if err != nil {
			t.Fatalf("partition %d: %v", c.tag.Partition, err)
		}
		if got != c.want {
			t.Errorf("partition %d: urn = %q, want %q", c.tag.Partition, got, c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []SGTIN96{
		{Filter: 8, Partition: 5},
		{Filter: 1, Partition: 7},
		{Filter: 1, Partition: 6, CompanyPrefix: 1 << 21},
		{Filter: 1, Partition: 5, CompanyPrefix: 1, ItemReference: 1 << 21},
		{Filter: 1, Partition: 5, CompanyPrefix: 1, ItemReference: 1, Serial: maxSerial + 1},
		{Filter: 1, Partition: 0, CompanyPrefix: 1, ItemReference: 10}, // item > 1 digit
	}
	for i, tag := range bad {
		if err := tag.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, tag)
		}
		if u, err := tag.URN(); err == nil {
			t.Errorf("case %d: URN rendered %+v as %q", i, tag, u)
		}
	}
}

func TestGeneratorUniqueSerials(t *testing.T) {
	g := NewGenerator(7, 3, 10)
	seen := map[string]bool{}
	for range 1000 {
		u := g.NextURN()
		if seen[u] {
			t.Fatalf("duplicate urn %s", u)
		}
		seen[u] = true
	}
}

func TestGeneratorLotSharesProduct(t *testing.T) {
	g := NewGenerator(7, 3, 10)
	lot := g.Lot(50)
	if len(lot) != 50 {
		t.Fatalf("lot size = %d", len(lot))
	}
	for _, tag := range lot[1:] {
		if tag.CompanyPrefix != lot[0].CompanyPrefix || tag.ItemReference != lot[0].ItemReference {
			t.Fatal("lot members differ in company/product")
		}
	}
	serials := map[uint64]bool{}
	for _, tag := range lot {
		if serials[tag.Serial] {
			t.Fatal("duplicate serial in lot")
		}
		serials[tag.Serial] = true
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(5, 4, 4), NewGenerator(5, 4, 4)
	for range 20 {
		if a.NextURN() != b.NextURN() {
			t.Fatal("same seed produced different tags")
		}
	}
}

// Every tag a generator hands out, singly or as a lot, is valid and
// renders as a partition-5 URN: 7-digit company, 6-digit item.
func TestGeneratorTagsValid(t *testing.T) {
	shape := regexp.MustCompile(`^urn:epc:id:sgtin:[0-9]{7}\.[0-9]{6}\.[1-9][0-9]*$`)
	g := NewGenerator(1, 5, 20)
	tags := g.Lot(50)
	for range 500 {
		tags = append(tags, g.Next())
	}
	for _, tag := range tags {
		u, err := tag.URN()
		if err != nil {
			t.Fatalf("generated %+v: %v", tag, err)
		}
		if !shape.MatchString(u) {
			t.Fatalf("generated urn %q", u)
		}
	}
}
