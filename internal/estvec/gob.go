package estvec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sync"
)

// wireVector is the encoded form of a Vector: the exported shape used
// by the middleware's TCP transport. It stays map-based so the wire
// format is independent of the in-memory array layout — peers built
// before or after the array-backed Vector interoperate.
type wireVector struct {
	Server string
	Vals   map[Tag]float64
}

// A Vector's encoding is the gob stream a fresh encoder writes for one
// wireVector: type descriptors, then the value message. The descriptors
// never change and cost several times the value to compile, so a
// vectorCodec pairs an encoder that has sent them with a decoder that
// has read them, around a buffer that is empty between uses. GobEncode
// prepends wirePrefix and GobDecode strips it: the wire is unchanged.
type vectorCodec struct {
	buf bytes.Buffer
	enc *gob.Encoder
	dec *gob.Decoder
}

// newVectorCodec returns a primed codec and the descriptor bytes: its
// first Encode's output less its second's, for the same value.
func newVectorCodec() (*vectorCodec, []byte) {
	c := &vectorCodec{}
	c.enc, c.dec = gob.NewEncoder(&c.buf), gob.NewDecoder(&c.buf)
	err := c.enc.Encode(wireVector{})
	first := bytes.Clone(c.buf.Bytes())
	if err = errors.Join(err, c.dec.Decode(new(wireVector)), c.enc.Encode(wireVector{})); err != nil {
		panic("estvec: priming the vector codec: " + err.Error())
	}
	prefix := first[:len(first)-c.buf.Len()]
	c.buf.Reset()
	return c, prefix
}

// vectorCodecs holds idle codecs. One that returned an error is
// dropped, not put back: the state of its stream is unknown.
var (
	_, wirePrefix = newVectorCodec()
	vectorCodecs  = sync.Pool{New: func() any { c, _ := newVectorCodec(); return c }}
)

// GobEncode implements gob.GobEncoder so vectors can cross the
// middleware's network transport.
func (v *Vector) GobEncode() ([]byte, error) {
	vals := make(map[Tag]float64, v.Len())
	for i, t := range stdTags {
		if v.mask&(1<<uint(i)) != 0 {
			vals[t] = v.std[i]
		}
	}
	for t, val := range v.extra {
		vals[t] = val
	}
	c := vectorCodecs.Get().(*vectorCodec)
	if err := c.enc.Encode(wireVector{Server: v.Server, Vals: vals}); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(wirePrefix)+c.buf.Len())
	out = append(append(out, wirePrefix...), c.buf.Bytes()...)
	c.buf.Reset()
	vectorCodecs.Put(c)
	return out, nil
}

// GobDecode implements gob.GobDecoder. A stream whose descriptors are
// not this build's (a peer that numbered its types differently) gets a
// decoder of its own.
func (v *Vector) GobDecode(data []byte) error {
	var w wireVector
	if value, ok := bytes.CutPrefix(data, wirePrefix); ok {
		c := vectorCodecs.Get().(*vectorCodec)
		c.buf.Write(value)
		if err := c.dec.Decode(&w); err != nil {
			return err
		}
		c.buf.Reset()
		vectorCodecs.Put(c)
	} else if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	v.Reset(w.Server)
	for t, val := range w.Vals {
		v.Set(t, val)
	}
	return nil
}
