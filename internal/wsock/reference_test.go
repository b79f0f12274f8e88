package wsock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// refReader is the blocking frame reader this package shipped before the
// reassembly machine became the only parser — readFrameInto and the
// ReadTextLease loop, verbatim, over a bytes.Reader — kept as the reference
// the differential tests compare the machine against. It knows nothing of
// RFC 6455 §5.5 (it echoes a 64 MiB ping and takes a fragmented close for a
// whole one); the tests assert that divergence explicitly.
type refReader struct {
	br      *bytes.Reader
	rbuf    []byte
	cbuf    []byte
	scratch [8]byte
	wc      *Conn // write side only: pong and close echoes land in its fakeConn
}

func newRefReader(data []byte) (*refReader, *fakeConn) {
	wire := &fakeConn{}
	return &refReader{br: bytes.NewReader(data), wc: &Conn{nc: wire}}, wire
}

func (c *refReader) ReadTextLease() ([]byte, error) {
	c.rbuf = c.rbuf[:0]
	assembling := false
	for {
		opcode, fin, err := c.readFrameInto()
		if err != nil {
			return nil, err
		}
		switch opcode {
		case opText:
			if assembling {
				return nil, errors.New("wsock: new text frame during fragmented message")
			}
			if fin {
				return c.rbuf, nil
			}
			assembling = true
		case opContinuation:
			if !assembling {
				return nil, errors.New("wsock: continuation without start")
			}
			if fin {
				return c.rbuf, nil
			}
		case opBinary:
			return nil, errors.New("wsock: unexpected binary frame")
		case opPing:
			if err := c.wc.writeFrame(opPong, c.cbuf); err != nil {
				return nil, err
			}
		case opPong:
			// ignore
		case opClose:
			return nil, c.handleClose()
		default:
			return nil, fmt.Errorf("wsock: unknown opcode %d", opcode)
		}
	}
}

func (c *refReader) handleClose() error {
	c.wc.wmu.Lock()
	alreadyClosed := c.wc.closed
	c.wc.closed = true
	c.wc.wmu.Unlock()
	if !alreadyClosed {
		_ = c.wc.writeFrame(opClose, c.cbuf)
	}
	return ErrClosed
}

func (c *refReader) readFrameInto() (opcode byte, fin bool, err error) {
	if _, err = io.ReadFull(c.br, c.scratch[:2]); err != nil {
		return 0, false, err
	}
	h0, h1 := c.scratch[0], c.scratch[1]
	fin = h0&0x80 != 0
	if h0&0x70 != 0 {
		return 0, false, errors.New("wsock: nonzero RSV bits")
	}
	opcode = h0 & 0x0F
	masked := h1&0x80 != 0
	length := uint64(h1 & 0x7F)
	switch length {
	case 126:
		if _, err = io.ReadFull(c.br, c.scratch[:2]); err != nil {
			return 0, false, err
		}
		length = uint64(binary.BigEndian.Uint16(c.scratch[:2]))
	case 127:
		if _, err = io.ReadFull(c.br, c.scratch[:8]); err != nil {
			return 0, false, err
		}
		length = binary.BigEndian.Uint64(c.scratch[:8])
	}
	if length > maxFrame {
		return 0, false, fmt.Errorf("wsock: frame of %d bytes exceeds limit", length)
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, c.scratch[:4]); err != nil {
			return 0, false, err
		}
		copy(mask[:], c.scratch[:4])
	}
	var payload []byte
	if opcode >= opClose {
		c.cbuf = growLen(c.cbuf[:0], int(length))
		payload = c.cbuf
	} else {
		start := len(c.rbuf)
		c.rbuf = growLen(c.rbuf, int(length))
		payload = c.rbuf[start:]
	}
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return 0, false, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return opcode, fin, nil
}
