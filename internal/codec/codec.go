// Package codec is the byte codec behind the engine's disk and wire formats:
// the WAL record payload, the table file and the server's frames. Strings,
// byte strings and lists carry a uvarint length prefix, signed integers are
// zigzag varints, floats are 8 bytes little-endian and booleans one byte.
//
// A Decoder reads one in-memory buffer and trusts no length prefix: a
// length the rest of the input cannot hold fails the decode and never
// sizes an allocation. It reads only the encoder's own spelling of a value
// (a varint in its fewest bytes, a boolean as 0 or 1, a map's keys in
// increasing order), so input it accepts re-encodes to the same bytes. Its
// first failure sticks; every later read returns the zero value, so a
// decode is a straight run of reads checked once, by Err or End, at the
// end.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Encoder appends encoded values to itself; it is the encoded bytes.
type Encoder []byte

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { *e = append(*e, b) }

// Bool appends 1 for true and 0 for false.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uvarint appends v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { *e = binary.AppendUvarint(*e, v) }

// Varint appends v as a zigzag varint.
func (e *Encoder) Varint(v int64) { *e = binary.AppendVarint(*e, v) }

// Float appends f's IEEE 754 bits, little-endian.
func (e *Encoder) Float(f float64) {
	*e = binary.LittleEndian.AppendUint64(*e, math.Float64bits(f))
}

// Bytes appends b with its length prefix.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	*e = append(*e, b...)
}

// Str appends s with its length prefix.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	*e = append(*e, s...)
}

// Strs appends a count and then each string.
func (e *Encoder) Strs(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// FloatMap appends a count and then each key and its value, keys in
// increasing order.
func (e *Encoder) FloatMap(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.Float(m[k])
	}
}

// Decoder reads values from one buffer; see the package comment. A failure
// moves the offset to the end, so every later read fails too and returns
// zero. Reads advance an offset rather than re-slicing buf: storing an int
// needs no GC write barrier, storing a slice through a pointer does.
type Decoder struct {
	buf []byte
	off int // bytes of buf already read
	err error
}

var (
	errShort    = errors.New("codec: input too short")
	errVarint   = errors.New("codec: varint truncated, overflowing or longer than its value needs")
	errBool     = errors.New("codec: boolean neither 0 nor 1")
	errKeyOrder = errors.New("codec: map keys not in increasing order")
)

// NewDecoder returns a decoder over b. Byte strings it returns alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the decoder's first failure.
func (d *Decoder) Err() error { return d.err }

// End reports the first failure, or an error if input is left over.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("codec: %d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Fail records err as the decoder's failure unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.off = len(d.buf)
	}
}

// take consumes the next n bytes, or fails and returns nil.
func (d *Decoder) take(n uint64) []byte {
	if n > uint64(len(d.buf)-d.off) {
		d.Fail(errShort)
		return nil
	}
	end := d.off + int(n)
	b := d.buf[d.off:end:end]
	d.off = end
	return b
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte as a boolean; a byte other than 0 or 1 fails.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail(errBool)
	}
	return b == 1
}

// Uvarint reads an unsigned varint, in binary.Uvarint's format, and fails
// on one spelled in more bytes than its value needs (a last byte of 0 after
// the first), which binary.Uvarint accepts. It is written out so that it
// inlines: the one-byte varints that dominate (counts, lengths, kinds)
// leave the loop on its first pass.
func (d *Decoder) Uvarint() (x uint64) {
	for i, c := range d.buf[d.off:] {
		if i == binary.MaxVarintLen64-1 && c > 1 || c == 0 && i > 0 {
			break // overflows 64 bits, or overlong
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			d.off += i + 1
			return x
		}
	}
	d.Fail(errVarint)
	return 0
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1 ^ -(u & 1))
}

// Float reads 8 bytes little-endian as a float64.
func (d *Decoder) Float() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Bytes reads a length-prefixed byte string; the result aliases the input.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Count reads the length prefix of a list whose items take at least size
// bytes each, and fails on one the rest of the input cannot hold.
func (d *Decoder) Count(size int) int {
	n := d.Uvarint()
	if n > uint64((len(d.buf)-d.off)/size) {
		d.Fail(errShort)
		return 0
	}
	return int(n)
}

// Strs reads a count and then that many strings; an empty list is nil.
func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// FloatMap reads what Encoder.FloatMap wrote; an empty map is nil. Keys out
// of increasing order, or repeated, fail.
func (d *Decoder) FloatMap() map[string]float64 {
	n := d.Count(9) // a key's length prefix and a float
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	prev := ""
	for i := range n {
		k := d.Str()
		if i > 0 && k <= prev {
			d.Fail(errKeyOrder)
			return nil
		}
		m[k], prev = d.Float(), k
	}
	return m
}
