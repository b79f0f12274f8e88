package wsock

// PreparedFrame is a text message framed for broadcast exactly once, so a
// hub can write the same bytes to every connection instead of re-framing per
// client. Server frames are unmasked, which is what makes the byte-for-byte
// sharing possible; client connections must mask with a fresh key per frame
// and fall back to normal framing. The frame keeps only its header beside
// the shared payload; writers append both into the connection's buffer.
type PreparedFrame struct {
	payload []byte   // the text payload, shared by every recipient
	hdr     [10]byte // the unmasked FIN text header
	hlen    uint8    // bytes of hdr in use: 2, 4 or 10
}

// NewPreparedText builds the shared unmasked text frame for a payload. The
// payload must not be modified afterwards.
func NewPreparedText(payload []byte) *PreparedFrame {
	f := &PreparedFrame{payload: payload}
	f.hlen = uint8(putHeader(f.hdr[:], opText, len(payload)))
	return f
}

// WritePrepared sends a prepared text message with one Write: the bytes a
// batch of one puts on the wire (client connections mask with a fresh key).
func (c *Conn) WritePrepared(f *PreparedFrame) error {
	return c.writeFrame(opText, f.payload)
}

// WritePreparedBatch sends several prepared text messages in one Write: the
// frames are assembled back to back into the connection's pooled write buffer
// and emitted with a single syscall, so a burst of K adjacent broadcasts
// costs one write instead of K (writev-style coalescing — server frames are
// their cached header followed by the shared payload, so concatenation is the
// vector write). The wire bytes are exactly what K individual WritePrepared
// calls would have produced; client connections mask each frame with a fresh
// key while copying into the shared buffer, still one Write. Same
// serialization as every other writer (wmu).
func (c *Conn) WritePreparedBatch(frames []*PreparedFrame) error {
	if len(frames) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrClosed
	}
	buf := c.wbuf[:0]
	if c.client {
		var err error
		for _, f := range frames {
			if buf, err = c.appendFrame(buf, opText, f.payload); err != nil {
				return err
			}
		}
	} else {
		for _, f := range frames {
			buf = append(buf, f.hdr[:f.hlen]...)
			buf = append(buf, f.payload...)
		}
	}
	return c.send(buf, len(frames))
}
