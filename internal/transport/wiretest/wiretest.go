// Package wiretest is the test support shared by the packages that
// define wire layouts (chord, core, gossip): each keeps one table of
// populated samples, one per layout, and runs it through the checks
// here. Only tests import it.
package wiretest

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"peertrack/internal/transport"
)

var update = flag.Bool("update", false, "rewrite the wire-format seed files from the samples")

// seedDir is internal/transport's FuzzFrame corpus, seen from a sibling
// package's directory: the samples are its seeds, and the files pin the
// wire format byte for byte.
var seedDir = filepath.Join("..", "transport", "testdata", "fuzz", "FuzzFrame")

// from is the sender every sample frame carries.
const from = "127.0.0.1:7001"

// Layouts checks the table of pkg ("chord"): there is exactly one sample
// per layout the package registers; a sample encodes, decodes and
// compares equal; every strict prefix of its encoding and its encoding
// plus one byte are refused as bad frames, without a panic; appending it
// into a buffer that has room — a connection's, after its largest frame
// — allocates nothing; and the encoding is the committed one (-update
// rewrites it — a changed file means the format changed, which needs a
// new preface version).
func Layouts(t *testing.T, pkg string, samples []transport.Wire) {
	t.Helper()
	laidOut, _ := transport.Registered()
	want := map[string]bool{}
	for _, name := range laidOut {
		if strings.HasPrefix(name, pkg+".") {
			want[name] = true
		}
	}
	for _, sample := range samples {
		name := reflect.TypeOf(sample).String()
		if !want[name] {
			t.Errorf("%s: sampled twice, or no layout registered", name)
		}
		delete(want, name)
		body, err := transport.AppendBody(nil, from, sample)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if head, got, err := transport.ParseBody(body); err != nil || head != from || !reflect.DeepEqual(got, sample) {
			t.Errorf("%s: round trip = %q, %+v, %v; want %+v", name, head, got, err, sample)
		}
		for cut := range body {
			if _, _, err := transport.ParseBody(body[:cut]); !errors.Is(err, transport.ErrBadFrame) {
				t.Errorf("%s: the first %d of %d bytes parse with err = %v, want a bad frame", name, cut, len(body), err)
			}
		}
		if _, _, err := transport.ParseBody(append(body[:len(body):len(body)], 0)); !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("%s: a trailing byte parses with err = %v, want a bad frame", name, err)
		}
		buf := make([]byte, 0, len(body))
		if allocs := testing.AllocsPerRun(100, func() { buf = sample.AppendWire(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: AppendWire into a buffer with room allocates %.1f times, want 0", name, allocs)
		}
		checkSeed(t, name, body)
	}
	for name := range want {
		t.Errorf("%s has a layout and no sample", name)
	}
}

func checkSeed(t *testing.T, name string, body []byte) {
	t.Helper()
	path, seed := filepath.Join(seedDir, name), fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
	if *update {
		if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if have, err := os.ReadFile(path); err != nil || string(have) != seed {
		t.Errorf("%s: the encoding differs from %s (%v): the wire format changed — bump the preface version and rerun with -update", name, path, err)
	}
}

// Declared prints, for every sample, the bytes of its request frame
// against the DefaultMsgSize + WireSize() the accounting charges, and
// checks the rule that connects them. A frame is 4 (length) + 2 +
// len(from) + 2 (tag) + payload bytes where the accounting charges the
// flat DefaultMsgSize; and for a type whose WireSize counts every field
//
//	payload = WireSize() + 2·strings + 4·slices
//
// exactly: the layout spends 2 bytes on each string's length and 4 on
// each slice's count, which the declarations leave out. inexact names
// the types whose declaration is not field by field — a flat charge per
// record, a field left out, no WireSize at all — with the reason; for
// those the remainder is printed, not checked. It also checks that the
// accounting charges what it declares: a call over transport.Memory
// with the sample as request and response counts twice the charge.
func Declared(t *testing.T, samples []transport.Wire, inexact map[string]string) {
	t.Helper()
	t.Logf("%-28s %6s %8s | %7s %8s %7s %6s  %s", "type", "frame", "declared", "payload", "WireSize", "strings", "slices", "remainder")
	for _, sample := range samples {
		name := reflect.TypeOf(sample).String()
		payload, declared := len(sample.AppendWire(nil)), 0
		if ws, ok := sample.(transport.WireSizer); ok {
			declared = ws.WireSize()
		}
		m := transport.NewMemory(1)
		if err := m.Register(from, func(transport.Addr, any) (any, error) { return sample, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Call(from, from, sample); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Stats().Snapshot().Bytes, uint64(2*(transport.DefaultMsgSize+declared)); got != want {
			t.Errorf("%s: a call with it both ways is charged %d bytes, want %d", name, got, want)
		}
		strs, slices := count(reflect.ValueOf(sample))
		rest := payload - declared - 2*strs - 4*slices
		why, loose := inexact[name]
		t.Logf("%-28s %6d %8d | %7d %8d %7d %6d  %+d %s", name, 4+2+len(from)+2+payload, transport.DefaultMsgSize+declared,
			payload, declared, strs, slices, rest, why)
		if rest != 0 && !loose {
			t.Errorf("%s: payload %d ≠ WireSize %d + 2·%d strings + 4·%d slices (off by %+d)", name, payload, declared, strs, slices, rest)
		}
		if rest == 0 && loose {
			t.Errorf("%s is listed as inexact (%s) and its sample is exact: the sample does not show why", name, why)
		}
	}
}

// count returns how many strings and slices v carries, elements included.
func count(v reflect.Value) (strs, slices int) {
	switch v.Kind() {
	case reflect.String:
		return 1, 0
	case reflect.Slice:
		slices = 1
		for i := 0; i < v.Len(); i++ {
			s, l := count(v.Index(i))
			strs, slices = strs+s, slices+l
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			s, l := count(v.Field(i))
			strs, slices = strs+s, slices+l
		}
	}
	return strs, slices
}

// tcpPair starts a TCP transport whose handler answers every request
// with resp, and a second one to call it from.
func tcpPair(tb testing.TB, resp any) (caller *transport.TCP, addr transport.Addr) {
	tb.Helper()
	server, caller := transport.NewTCP(), transport.NewTCP()
	tb.Cleanup(server.Close)
	tb.Cleanup(caller.Close)
	addr, err := server.RegisterAuto("127.0.0.1", func(transport.Addr, any) (any, error) { return resp, nil })
	if err != nil {
		tb.Fatal(err)
	}
	return caller, addr
}

// BenchTCPCall measures one req → resp round trip over loopback TCP on a
// warm pooled connection, both ends in this process.
func BenchTCPCall(b *testing.B, req, resp any) {
	caller, addr := tcpPair(b, resp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caller.Call(from, addr, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TCPCallAllocs is the allocations of that round trip, both ends
// together.
func TCPCallAllocs(t *testing.T, req, resp any) float64 {
	caller, addr := tcpPair(t, resp)
	return testing.AllocsPerRun(2000, func() {
		if _, err := caller.Call(from, addr, req); err != nil {
			t.Fatal(err)
		}
	})
}
