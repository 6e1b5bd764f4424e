// Package epc implements the identifiers of the GS1 Electronic Product
// Code SGTIN-96 scheme — the tags the paper's motivating applications
// (EPC / RFID supply chains) use as object identifiers. It validates a
// tag's fields, renders its EPC Pure Identity URN (the raw id PeerTrack
// hashes), and generates deterministic tag streams for synthetic
// workloads. The 96-bit binary form is never needed: objects are named
// by URN end to end.
package epc

import "fmt"

// partition table for SGTIN-96 (GS1 EPC Tag Data Standard §14.5.1):
// partition value -> company prefix bits/digits, item reference
// bits/digits (item reference includes the indicator digit).
var partitions = [7]struct {
	companyBits   int
	companyDigits int
	itemBits      int
	itemDigits    int
}{
	{40, 12, 4, 1},
	{37, 11, 7, 2},
	{34, 10, 10, 3},
	{30, 9, 14, 4},
	{27, 8, 17, 5},
	{24, 7, 20, 6},
	{20, 6, 24, 7},
}

// maxSerial is the largest 38-bit serial number.
const maxSerial = 1<<38 - 1

// SGTIN96 is a decoded SGTIN-96 tag.
type SGTIN96 struct {
	// Filter is the 3-bit filter value (0-7); 1 = point of sale item,
	// 2 = full case, 3 = reserved, etc.
	Filter uint8
	// Partition selects the company-prefix/item-reference split (0-6).
	Partition uint8
	// CompanyPrefix is the GS1 company prefix (digit count fixed by
	// Partition).
	CompanyPrefix uint64
	// ItemReference is the indicator digit plus item reference (digit
	// count fixed by Partition).
	ItemReference uint64
	// Serial is the 38-bit serial number.
	Serial uint64
}

// Validate checks field ranges against the partition table.
func (t SGTIN96) Validate() error {
	if t.Filter > 7 {
		return fmt.Errorf("epc: filter %d out of range", t.Filter)
	}
	if int(t.Partition) >= len(partitions) {
		return fmt.Errorf("epc: partition %d out of range", t.Partition)
	}
	p := partitions[t.Partition]
	if t.CompanyPrefix >= 1<<p.companyBits {
		return fmt.Errorf("epc: company prefix %d exceeds %d bits", t.CompanyPrefix, p.companyBits)
	}
	if t.ItemReference >= 1<<p.itemBits {
		return fmt.Errorf("epc: item reference %d exceeds %d bits", t.ItemReference, p.itemBits)
	}
	if pow10(p.companyDigits) <= t.CompanyPrefix {
		return fmt.Errorf("epc: company prefix %d exceeds %d digits", t.CompanyPrefix, p.companyDigits)
	}
	if pow10(p.itemDigits) <= t.ItemReference {
		return fmt.Errorf("epc: item reference %d exceeds %d digits", t.ItemReference, p.itemDigits)
	}
	if t.Serial > maxSerial {
		return fmt.Errorf("epc: serial %d exceeds 38 bits", t.Serial)
	}
	return nil
}

func pow10(n int) uint64 {
	v := uint64(1)
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// URN renders the EPC Pure Identity URN,
// urn:epc:id:sgtin:CompanyPrefix.ItemReference.Serial, with
// partition-determined zero padding. This string is the "raw id" that
// PeerTrack hashes into the identifier space.
func (t SGTIN96) URN() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	p := partitions[t.Partition]
	return fmt.Sprintf("urn:epc:id:sgtin:%0*d.%0*d.%d",
		p.companyDigits, t.CompanyPrefix, p.itemDigits, t.ItemReference, t.Serial), nil
}
