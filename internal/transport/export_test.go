package transport

import "bytes"

// RecvFrom reads one message from stream as the accepting end of a new
// connection would, for the external test package.
func RecvFrom(stream []byte) (head string, payload any, err error) {
	return newWireConn(bufConn{buf: bytes.NewBuffer(stream)}, nil, false).recv()
}
