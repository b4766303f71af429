// Package codec is the byte codec behind the engine's disk formats: the WAL
// record payload and the table file. Strings, byte strings and lists carry
// a uvarint length prefix, signed integers are zigzag varints, floats are 8
// bytes little-endian and booleans one byte.
//
// A Decoder reads one in-memory buffer and trusts no length prefix: a
// length the rest of the input cannot hold fails the decode and never
// sizes an allocation. Its first failure sticks; every later read returns
// the zero value, so a decode is a straight run of reads checked once, by
// Err or End, at the end.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// Decoder reads values from one buffer; see the package comment. A failure
// moves the offset to the end, so every later read fails too and returns
// zero. Reads advance an offset rather than re-slicing buf: storing an int
// needs no GC write barrier, storing a slice through a pointer does.
type Decoder struct {
	buf []byte
	off int // bytes of buf already read
	err error
}

var errShort = errors.New("codec: input too short")

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

// Bool reads one byte as a boolean: any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads an unsigned varint, in binary.Uvarint's format. It is
// written out so that it inlines: the one-byte varints that dominate
// (counts, lengths, kinds) leave the loop on its first pass.
func (d *Decoder) Uvarint() (x uint64) {
	for i, c := range d.buf[d.off:] {
		if i == binary.MaxVarintLen64-1 && c > 1 {
			break // overflows 64 bits
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			d.off += i + 1
			return x
		}
	}
	d.Fail(errShort)
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
