// Package transport is a minimal stand-in for
// peertrack/internal/transport, used by the lockheld corpus: the pass
// matches Call/Send methods defined in a package whose import path ends
// in "transport".
package transport

type Addr string

type Network interface {
	Call(from, to Addr, req any) (any, error)
}

type Memory struct{}

func (m *Memory) Call(from, to Addr, req any) (any, error) { return nil, nil }

func (m *Memory) Send(to Addr, msg any) error { return nil }
