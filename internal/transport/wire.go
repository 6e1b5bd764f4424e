package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"peertrack/internal/ids"
)

// The payload side of the TCP wire format (DESIGN.md "Wire format"; the
// frame around it is in tcp.go). A message type that crosses TCP has one
// fixed layout, written by hand next to the type: AppendWire appends its
// fields in declaration order and a read function consumes them in the
// same order from a Reader. Integers are big-endian and fixed width (int,
// uint64 and time.Duration 8 bytes, uint32 4, bool 1), an ids.ID is its 20
// raw bytes, an ids.PrefixKey 8, a string a u16 length and its bytes, a
// slice a u32 count and its elements.

// Wire is a message with a fixed layout: AppendWire appends the encoding
// of the value to b and returns the extended slice, like strconv's
// Append functions.
type Wire interface {
	AppendWire(b []byte) []byte
}

// Tags below firstLayoutTag belong to the transport. Layout tags are
// dealt out by package — chord 0x01xx, core 0x02xx, gossip 0x03xx — and
// each package lists its own in one RegisterLayout table.
const (
	tagNil         uint16 = 0 // no payload: a handler that returns nil
	tagGob         uint16 = 1 // the gob carrier, for registered types this module does not own
	firstLayoutTag uint16 = 0x0100
)

type layout struct {
	tag  uint16
	read func(*Reader) any
}

// The registration tables are filled from package init functions and
// only read afterwards; sync.Map keeps a late Register safe anyway.
var (
	layoutByTag  sync.Map // uint16 -> *layout
	layoutByType sync.Map // reflect.Type -> *layout
	carried      sync.Map // reflect.Type -> struct{}: registered, no layout
)

// RegisterLayout makes T a wire type: its values travel as tag followed
// by AppendWire's bytes, and read decodes them. A tag is part of the wire
// format: once released it is never renumbered or reused, new types take
// new tags. A reserved or duplicate tag, or a second layout for one type,
// panics — at package init, where the tables are built.
func RegisterLayout[T Wire](tag uint16, read func(*Reader) T) {
	var zero T
	typ := reflect.TypeOf(zero)
	if tag < firstLayoutTag {
		panic(fmt.Sprintf("transport: layout tag %#04x of %v is reserved", tag, typ))
	}
	l := &layout{tag: tag, read: func(r *Reader) any { return read(r) }}
	if _, dup := layoutByType.LoadOrStore(typ, l); dup {
		panic(fmt.Sprintf("transport: %v has a layout already", typ))
	}
	if _, dup := layoutByTag.LoadOrStore(tag, l); dup {
		layoutByType.Delete(typ)
		panic(fmt.Sprintf("transport: layout tag %#04x of %v is already taken", tag, typ))
	}
}

// Register makes a payload type that has no layout encodable on the
// wire: its values travel by gob inside the same frames (see gobOut).
// It is for types this module does not own — bench/'s echo types and
// this package's tests; every message of the module has a layout.
func Register(v any) {
	gob.Register(v)
	carried.Store(reflect.TypeOf(v), struct{}{})
}

// Registered lists the names of the types that have a layout and of the
// registered types that travel by gob because they have none, each
// sorted. The repo's own messages must all be in the first list (the
// root package pins the second empty).
func Registered() (laidOut, carriedByGob []string) {
	layoutByType.Range(func(typ, _ any) bool {
		laidOut = append(laidOut, typ.(reflect.Type).String())
		return true
	})
	carried.Range(func(typ, _ any) bool {
		if _, ok := layoutByType.Load(typ); !ok {
			carriedByGob = append(carriedByGob, typ.(reflect.Type).String())
		}
		return true
	})
	sort.Strings(laidOut)
	sort.Strings(carriedByGob)
	return laidOut, carriedByGob
}

// ErrBadFrame is the class of every frame a connection refuses for what
// it contains: oversize, truncated, unknown tag, trailing bytes, foreign
// preface. The connection that carried it is closed and
// transport.frames.rejected counts it.
var ErrBadFrame = errors.New("transport: bad frame")

var (
	errTruncated = fmt.Errorf("%w: truncated", ErrBadFrame)
	errCount     = fmt.Errorf("%w: element count exceeds the frame", ErrBadFrame)
	errTrailing  = fmt.Errorf("%w: trailing bytes", ErrBadFrame)
	errBadFlags  = fmt.Errorf("%w: unknown flag bits", ErrBadFrame)
	errBadString = fmt.Errorf("%w: long-string escape for a short string", ErrBadFrame)
)

// longString in a string's u16 length slot says the real length follows
// as a u32, so no string is unrepresentable (object ids arrive from
// outside); every string shorter than 65535 bytes costs 2 bytes.
const longString = 0xFFFF

// The append primitives. Every byte of a frame is appended by one of
// them, into the connection's write buffer, which is reused and stops
// growing at the largest frame the connection has sent: a layout that
// appends into room allocates nothing (wiretest.Layouts checks each one,
// TestSendZeroAllocs the frame around it).

// AppendByte appends one byte: packed flags.
func AppendByte(b []byte, v byte) []byte {
	return append(b, v)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return AppendByte(b, 1)
	}
	return AppendByte(b, 0)
}

func appendU16(b []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(b, v)
}

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// AppendInt appends v as 8 big-endian bytes; int fields, uint64 versions,
// time.Durations and ids.PrefixKeys all travel this way.
func AppendInt[I ~int | ~int64 | ~uint64](b []byte, v I) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

// AppendID appends id's 20 raw bytes.
func AppendID(b []byte, id ids.ID) []byte {
	return append(b, id[:]...)
}

// AppendString appends s as its length and bytes.
func AppendString[S ~string](b []byte, s S) []byte {
	if len(s) >= longString {
		b = AppendU32(appendU16(b, longString), uint32(len(s)))
	} else {
		b = appendU16(b, uint16(len(s)))
	}
	return append(b, s...)
}

// AppendSlice appends the count of s and then each element through elem.
func AppendSlice[T any](b []byte, s []T, elem func([]byte, T) []byte) []byte {
	b = AppendU32(b, uint32(len(s)))
	for i := range s {
		b = elem(b, s[i])
	}
	return b
}

// ReadSlice reads a slice written by AppendSlice. minSize is the fewest
// bytes one element can occupy: a count that the rest of the frame could
// not hold is refused before anything is allocated. An empty slice
// decodes as nil, as it did under gob.
func ReadSlice[T any](r *Reader, minSize int, elem func(*Reader) T) []T {
	n := r.count(minSize)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(r)
	}
	return s
}

// ReadEmpty is the read function of a message type that has no fields.
func ReadEmpty[T Wire](*Reader) (zero T) { return zero }

// ReadString is Reader.String for named string types, in the shape
// ReadSlice takes.
func ReadString[S ~string](r *Reader) S { return S(r.String()) }

// Reader consumes one frame's payload. A read past the end fails the
// reader: that read and every later one return zero values, and Done
// reports the first failure, so a read function needs no error handling
// of its own. Nothing a Reader returns aliases the frame, whose buffer is
// reused for the connection's next one.
type Reader struct {
	b   []byte
	err error
}

// Done reports the first failed read, or trailing bytes if the payload
// was not consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(errTrailing)
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

var zeros [ids.Bytes]byte

// fixed returns the next n bytes (n ≤ len(zeros)), or zeros once the
// payload has run out.
func (r *Reader) fixed(n int) []byte {
	if n > len(r.b) {
		r.fail(errTruncated)
		return zeros[:n]
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// Flags reads one byte of n packed bools, bit 0 first. A bit beyond the
// n fails the reader, so an encoding has one form.
func (r *Reader) Flags(n uint) byte {
	f := r.fixed(1)[0]
	if f>>n != 0 {
		r.fail(errBadFlags)
	}
	return f
}

// Bool reads what AppendBool wrote: one byte, 0 or 1.
func (r *Reader) Bool() bool { return r.Flags(1) != 0 }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.fixed(2)) }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

// Int reads what AppendInt wrote for an int or time.Duration field.
func (r *Reader) Int() int64 { return int64(r.U64()) }

// ID reads 20 raw bytes.
func (r *Reader) ID() (id ids.ID) {
	copy(id[:], r.fixed(ids.Bytes))
	return id
}

// PrefixKey reads a packed prefix key.
func (r *Reader) PrefixKey() ids.PrefixKey { return ids.PrefixKey(r.U64()) }

// String reads a string written by AppendString into fresh memory.
func (r *Reader) String() string { return string(r.stringBytes()) }

// stringBytes is String without the copy: a view into the frame.
func (r *Reader) stringBytes() []byte {
	n := uint64(r.U16())
	if n == longString {
		if n = uint64(r.U32()); n < longString {
			r.fail(errBadString)
		}
	}
	if n > uint64(len(r.b)) {
		r.fail(errTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// count reads an element count and checks it against the bytes left.
func (r *Reader) count(minSize int) int {
	n := uint64(r.U32())
	if n*uint64(max(minSize, 1)) > uint64(len(r.b)) {
		r.fail(errCount)
		return 0
	}
	return int(n)
}

// appendBody appends one message body: head (a request's sender, a
// response's error text), then the payload as its tag and encoding — by
// its layout if its type has one, otherwise through the gob carrier.
func appendBody(b []byte, head string, payload any, gobs *gobOut) ([]byte, error) {
	b = AppendString(b, head)
	if payload == nil {
		return appendU16(b, tagNil), nil
	}
	if l, ok := layoutByType.Load(reflect.TypeOf(payload)); ok {
		return payload.(Wire).AppendWire(appendU16(b, l.(*layout).tag)), nil
	}
	return gobs.encode(appendU16(b, tagGob), payload)
}

// bodyParser is the receiving state a connection keeps between
// messages: the reader (kept so that it is not allocated per message),
// the last head (the same sender, or the same empty error text, message
// after message: the string is made once) and the gob carrier's decoder.
type bodyParser struct {
	r    Reader
	head string
	gobs gobIn
}

// parse decodes what appendBody wrote and requires the payload to end
// where the body ends.
func (p *bodyParser) parse(body []byte) (head string, payload any, err error) {
	r := &p.r
	*r = Reader{b: body}
	if h := r.stringBytes(); string(h) != p.head {
		p.head = string(h)
	}
	switch tag := r.U16(); tag {
	case tagNil:
	case tagGob:
		if r.err == nil {
			payload, r.err = p.gobs.decode(r.b)
			r.b = nil
		}
	default:
		l, ok := layoutByTag.Load(tag)
		if !ok {
			return "", nil, fmt.Errorf("%w: unknown message tag %#04x", ErrBadFrame, tag)
		}
		payload = l.(*layout).read(r)
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return p.head, payload, nil
}

// AppendBody and ParseBody are the body writer and parser of a
// connection, for tests and tools that have none: a value without a
// layout travels as a gob stream of its own, type descriptions included.
func AppendBody(b []byte, head string, payload any) ([]byte, error) {
	return appendBody(b, head, payload, new(gobOut))
}

// ParseBody parses what AppendBody wrote. See AppendBody.
func ParseBody(body []byte) (head string, payload any, err error) {
	return new(bodyParser).parse(body)
}

// The gob carrier moves values of registered types that have no layout:
// they travel as gob, inside the same frames, on one encoder and one
// decoder per connection end, so gob's type descriptions cross a
// connection once. It exists only for types this module does not own:
// bench/ and this package's tests register echo types through Register.
// A connection end builds its encoder or decoder when the first such
// value crosses it, so the repo's own traffic never pays for gob's
// engines.
type gobOut struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

func (c *gobOut) encode(b []byte, v any) ([]byte, error) {
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.buf)
	}
	c.buf.Reset()
	if err := c.enc.Encode(&v); err != nil {
		return b, fmt.Errorf("transport: encode %T: %w", v, err)
	}
	return append(b, c.buf.Bytes()...), nil
}

type gobIn struct {
	buf bytes.Buffer
	dec *gob.Decoder
}

func (c *gobIn) decode(p []byte) (any, error) {
	if c.dec == nil {
		c.dec = gob.NewDecoder(&c.buf)
	}
	c.buf.Reset()
	c.buf.Write(p)
	var v any
	if err := c.dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%w: gob: %v", ErrBadFrame, err)
	}
	if c.buf.Len() != 0 {
		return nil, errTrailing
	}
	return v, nil
}
