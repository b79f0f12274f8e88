// The frame-reassembly machine: the connection's only RFC 6455 parser
// (DESIGN.md §11, §15). Both read modes are loops over step — a blocking
// read hands it the bufio window, a readiness dispatch hands it whatever a
// non-blocking read returned — so the wire rules are checked in one place
// and a frame may be split across any number of inputs in either mode.
package wsock

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxFrame bounds a single frame's payload; maxControl is RFC 6455 §5.5's
// bound on a control frame's.
const (
	maxFrame   = 64 << 20
	maxControl = 125
)

// Frame-reassembly states. A frame arrives in up to four pieces — fixed
// header, extended length, mask key, payload — and any piece may itself be
// split across an arbitrary number of inputs.
const (
	psHdr     = iota // collecting the 2 fixed header bytes
	psExt            // collecting the 2- or 8-byte extended length
	psMask           // collecting the 4-byte mask key
	psPayload        // collecting payload bytes
)

// reassembly is the machine's state between two inputs. The zero value is a
// connection between frames.
type reassembly struct {
	state      int
	hdr        [8]byte // the piece being collected; the mask key during psPayload
	hdrn       int     // bytes of that piece collected so far
	extn       int     // extended-length size for this frame (2 or 8)
	fin        bool
	opcode     byte
	masked     bool
	maskOff    int  // rolling payload offset mod 4 for incremental unmasking
	length     int  // this frame's payload length
	remaining  int  // payload bytes still missing
	wireHdr    int  // header bytes on the wire, for the byte counters
	payStart   int  // payload start offset in rbuf (data frames)
	assembling bool // between a non-fin text frame and its final continuation
}

// take moves bytes from p into the piece accumulator until it holds need
// bytes; done reports that it does, and readies it for the next piece.
func (r *reassembly) take(need int, p []byte) (rest []byte, done bool) {
	k := copy(r.hdr[r.hdrn:need], p)
	if r.hdrn += k; r.hdrn < need {
		return p[k:], false
	}
	r.hdrn = 0
	return p[k:], true
}

// idle reports whether the machine sits between two messages: no partial
// frame, no partial fragmented message.
func (r *reassembly) idle() bool {
	return r.state == psHdr && r.hdrn == 0 && !r.assembling
}

// step runs p through the machine until one text message is complete in rbuf
// or p is used up, answering control frames on the way (pongs and the close
// echo go through the pooled write path). rest is what it did not consume —
// empty unless msg or err is set. msg means rbuf holds a complete message: a
// lease that stays valid until the first frame of the next text message
// arrives. Any error is fatal to the connection.
//
//lint:hotpath step
func (c *Conn) step(p []byte) (rest []byte, msg bool, err error) {
	r := &c.rd
	var done bool
	for {
		switch r.state {
		case psHdr:
			if p, done = r.take(2, p); !done {
				return p, false, nil
			}
			h0, h1 := r.hdr[0], r.hdr[1]
			if h0&0x70 != 0 {
				return p, false, errRSV
			}
			r.fin = h0&0x80 != 0
			r.opcode = h0 & 0x0F
			r.masked = h1&0x80 != 0
			r.length = int(h1 & 0x7F)
			r.wireHdr = 2
			// §5.5: control frames are never fragmented and carry at most 125
			// bytes — refused here, before a hostile length can size cbuf.
			if r.opcode >= opClose {
				if !r.fin {
					return p, false, errFragmentedControl
				}
				if r.length > maxControl {
					return p, false, errControlTooLong
				}
			}
			switch r.length {
			case 126:
				r.extn, r.state = 2, psExt
			case 127:
				r.extn, r.state = 8, psExt
			default:
				c.startPayload()
			}
		case psExt:
			if p, done = r.take(r.extn, p); !done {
				return p, false, nil
			}
			length := uint64(binary.BigEndian.Uint16(r.hdr[:2]))
			if r.extn == 8 {
				length = binary.BigEndian.Uint64(r.hdr[:8])
			}
			if length > maxFrame {
				return p, false, fmt.Errorf("wsock: frame of %d bytes exceeds limit", length) //lint:allow hotalloc fatal protocol violation, connection is torn down
			}
			r.wireHdr += r.extn
			r.length = int(length)
			c.startPayload()
		case psMask:
			if p, done = r.take(4, p); !done {
				return p, false, nil
			}
			r.wireHdr += 4
			c.beginPayload()
		case psPayload:
			if r.remaining > 0 {
				if len(p) == 0 {
					return p, false, nil
				}
				dst := c.rbuf
				if r.opcode >= opClose {
					dst = c.cbuf
				}
				off := r.payStart + r.length - r.remaining
				k := copy(dst[off:r.payStart+r.length], p)
				if r.masked {
					seg := dst[off : off+k]
					for i := range seg {
						seg[i] ^= r.hdr[(r.maskOff+i)&3]
					}
					r.maskOff = (r.maskOff + k) & 3
				}
				r.remaining -= k
				p = p[k:]
				if r.remaining > 0 {
					return p, false, nil
				}
			}
			c.countRead(r.wireHdr + r.length)
			r.state = psHdr
			switch r.opcode {
			case opText, opContinuation:
				if first := r.opcode == opText; first && r.assembling {
					return p, false, errTextInFragment
				} else if !first && !r.assembling {
					return p, false, errStrayContinuation
				}
				if r.assembling = !r.fin; r.fin {
					c.countLease()
					return p, true, nil
				}
			case opBinary:
				return p, false, errBinary
			case opPing:
				// The pong echoes from cbuf through the pooled write buffer:
				// no allocation, and no aliasing of the data being assembled
				// in rbuf.
				if err := c.writeFrame(opPong, c.cbuf); err != nil {
					return p, false, err
				}
			case opPong:
				// ignore
			case opClose:
				return p, false, c.handleClose()
			default:
				return p, false, fmt.Errorf("wsock: unknown opcode %d", r.opcode) //lint:allow hotalloc fatal protocol violation, connection is torn down
			}
		}
	}
}

// The wire-rule violations whose text is fixed; all are fatal.
var (
	errRSV               = errors.New("wsock: nonzero RSV bits")
	errFragmentedControl = errors.New("wsock: fragmented control frame")
	errControlTooLong    = errors.New("wsock: control frame payload exceeds 125 bytes")
	errTextInFragment    = errors.New("wsock: new text frame during fragmented message")
	errStrayContinuation = errors.New("wsock: continuation without start")
	errBinary            = errors.New("wsock: unexpected binary frame")
)

// startPayload routes the frame after its length is known: mask key next if
// the frame is masked, else straight to payload collection.
func (c *Conn) startPayload() {
	if c.rd.masked {
		c.rd.state = psMask
		return
	}
	c.beginPayload()
}

// beginPayload sizes the destination buffer — control payloads into cbuf,
// data payloads appended to rbuf so fragment assembly is consecutive — and
// enters payload collection. Zero-length frames complete on the next loop
// iteration without needing further input. The first frame of a text message
// is the one place a lease on the previous message expires, in both read
// modes.
func (c *Conn) beginPayload() {
	r := &c.rd
	if r.opcode >= opClose {
		if cap(c.cbuf) < r.length {
			c.countBufGrow()
		}
		c.cbuf = growLen(c.cbuf[:0], r.length) //lint:allow hotalloc amortized pooled-buffer growth
		r.payStart = 0
	} else {
		if r.opcode == opText {
			c.rbuf = c.rbuf[:0]
		}
		r.payStart = len(c.rbuf)
		if cap(c.rbuf)-r.payStart < r.length {
			c.countBufGrow()
		}
		c.rbuf = growLen(c.rbuf, r.length) //lint:allow hotalloc amortized pooled-buffer growth
	}
	r.remaining = r.length
	r.maskOff = 0
	r.state = psPayload
}

// growLen extends b by n bytes (contents of the extension undefined),
// reusing capacity when available.
func growLen(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, (len(b)+n)*2)
	copy(nb, b)
	return nb
}

// handleClose completes the closing handshake after a close frame whose
// payload is in cbuf, and always returns ErrClosed.
func (c *Conn) handleClose() error {
	c.wmu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.wmu.Unlock()
	if !alreadyClosed {
		// Echo the close to complete the handshake.
		_ = c.writeFrame(opClose, c.cbuf)
	}
	c.nc.Close()
	c.fireOnClose()
	return ErrClosed
}
