package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Message authentication for the TCP transport. The traceable network
// spans sovereign organisations; with a shared network secret set, every
// frame ends in a fixed trailer, `u64 seq | 32-byte MAC`, the MAC an
// HMAC-SHA256 over (per-connection, per-direction sequence number ||
// body), so peers reject frames from parties without the secret as well
// as replayed or reordered frames. This is transport-level
// authentication, not confidentiality — run over a private network or
// add TLS externally if eavesdropping matters.

// ErrBadMAC is returned when a frame fails authentication.
var ErrBadMAC = errors.New("transport: message authentication failed")

// trailerLen is the size of the authentication trailer.
const trailerLen = 8 + sha256.Size

// macOf computes HMAC-SHA256(secret, seq || body).
func macOf(secret []byte, seq uint64, body []byte) []byte {
	m := hmac.New(sha256.New, secret)
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	m.Write(seqb[:])
	m.Write(body)
	return m.Sum(nil)
}

// authState is one connection end's place in the two sequences.
type authState struct {
	secret  []byte
	sendSeq uint64
	recvSeq uint64
}

// seal appends the trailer for body, the next frame this end sends, to b.
func (a *authState) seal(b, body []byte) []byte {
	mac := macOf(a.secret, a.sendSeq, body)
	b = binary.BigEndian.AppendUint64(b, a.sendSeq)
	a.sendSeq++
	return append(b, mac...)
}

// open splits a received frame into body and trailer, verifies the
// sequence number and the MAC, and returns the body.
func (a *authState) open(frame []byte) ([]byte, error) {
	if len(frame) < trailerLen {
		return nil, fmt.Errorf("%w: no trailer", ErrBadMAC)
	}
	body, trailer := frame[:len(frame)-trailerLen], frame[len(frame)-trailerLen:]
	if seq := binary.BigEndian.Uint64(trailer); seq != a.recvSeq {
		return nil, fmt.Errorf("%w: sequence %d, want %d (replay or reorder)", ErrBadMAC, seq, a.recvSeq)
	}
	if !hmac.Equal(trailer[8:], macOf(a.secret, a.recvSeq, body)) {
		return nil, ErrBadMAC
	}
	a.recvSeq++
	return body, nil
}
