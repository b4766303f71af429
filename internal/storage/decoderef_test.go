package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file keeps the column decoders as they were before the word-at-a-time
// kernels in encode.go replaced them: byte-at-a-time null and bool bitmaps
// grown by Append, binary.Varint for every delta, and a scratch word copied
// per XOR value. They are slow and obviously right, which makes them the
// reference FuzzDecodeColumnMatchesReference holds DecodeColumn to: on any
// input both accept or both reject, and accepted frames agree bit for bit.
// Only the names differ from the originals.

func refDecInt64Plain(b []byte, n int) ([]int64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storage: plain int payload %d bytes, want %d", len(b), 8*n)
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals, nil
}

func refDecFloat64Plain(b []byte, n int) ([]float64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storage: plain float payload %d bytes, want %d", len(b), 8*n)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals, nil
}

// refReadPackedWord reads one appendPackedWord frame starting at b[off],
// returning the word and the bytes consumed. word is 8 bytes of scratch.
func refReadPackedWord(b []byte, off int, word []byte) (uint64, int, error) {
	if off >= len(b) {
		return 0, 0, fmt.Errorf("storage: truncated XOR payload")
	}
	h := b[off]
	lead := int(h >> 4)
	trail := int(h & 0x0f)
	if lead == 8 {
		return 0, 1, nil
	}
	mid := 8 - lead - trail
	if mid <= 0 || off+1+mid > len(b) {
		return 0, 0, fmt.Errorf("storage: corrupt XOR header")
	}
	for k := range word {
		word[k] = 0
	}
	copy(word[lead:8-trail], b[off+1:off+1+mid])
	return binary.BigEndian.Uint64(word), 1 + mid, nil
}

func refDecFloat64LinearCount(b []byte, n int) ([]float64, int, error) {
	if len(b) < 16 {
		return nil, 0, fmt.Errorf("storage: truncated linear header")
	}
	a := math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	slope := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	off := 16
	vals := make([]float64, n)
	word := make([]byte, 8)
	for i := 0; i < n; i++ {
		x, sz, err := refReadPackedWord(b, off, word)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: linear payload row %d: %w", i, err)
		}
		off += sz
		vals[i] = math.Float64frombits(math.Float64bits(linPred(a, slope, i)) ^ x)
	}
	return vals, off, nil
}

func refDecodeNulls(b []byte, n int) (*Bitmap, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("storage: missing null marker")
	}
	if b[0] == 0 {
		bm := NewBitmap(0)
		for i := 0; i < n; i++ {
			bm.Append(false)
		}
		return bm, 1, nil
	}
	off := 1
	cnt, sz := binary.Uvarint(b[off:])
	if sz <= 0 || int(cnt) != n {
		return nil, 0, fmt.Errorf("storage: bad null bitmap length")
	}
	off += sz
	need := (n + 7) / 8
	if off+need > len(b) {
		return nil, 0, fmt.Errorf("storage: truncated null bitmap")
	}
	bm := NewBitmap(0)
	for i := 0; i < n; i++ {
		bm.Append(b[off+i/8]&(1<<(i%8)) != 0)
	}
	return bm, off + need, nil
}

// refDecodeColumn reverses EncodeColumn.
func refDecodeColumn(b []byte) (Column, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("storage: column frame too short")
	}
	typ := ColType(b[0])
	enc := Encoding(b[1])
	n64, sz := binary.Uvarint(b[2:])
	if sz <= 0 {
		return nil, fmt.Errorf("storage: bad row count")
	}
	if n64 > maxDecodeRows {
		return nil, fmt.Errorf("storage: implausible row count %d", n64)
	}
	n := int(n64)
	body := b[2+sz:]
	// Every encoding except RLE spends at least one payload byte per row, so
	// a row count exceeding the remaining frame is corrupt. Checking before
	// the decoders run keeps allocation proportional to the input, not to an
	// attacker-chosen header. (RLE allocates with a clamped capacity instead.)
	if enc != EncRLE && typ != TypeBool && n > len(body) {
		return nil, fmt.Errorf("storage: row count %d exceeds frame", n)
	}
	switch typ {
	case TypeInt64:
		// Payload length is implicit for varint encodings: find the split
		// by decoding. We locate the nulls trailer by decoding from the end
		// is fragile; instead each int encoding decodes greedily and
		// reports the bytes it consumed via re-encode length.
		var vals []int64
		var consumed int
		var err error
		switch enc {
		case EncPlain:
			if len(body) < 8*n {
				return nil, fmt.Errorf("storage: truncated plain payload")
			}
			vals, err = refDecInt64Plain(body[:8*n], n)
			consumed = 8 * n
		case EncDelta:
			vals, consumed, err = refDecInt64DeltaCount(body, n)
		case EncRLE:
			vals, consumed, err = refDecInt64RLECount(body, n)
		default:
			return nil, fmt.Errorf("storage: bad int encoding %s", enc)
		}
		if err != nil {
			return nil, err
		}
		nulls, _, err := refDecodeNulls(body[consumed:], n)
		if err != nil {
			return nil, err
		}
		return &Int64Column{Vals: vals, Nulls: nulls}, nil
	case TypeFloat64:
		var vals []float64
		var consumed int
		var err error
		switch enc {
		case EncPlain:
			if len(body) < 8*n {
				return nil, fmt.Errorf("storage: truncated plain payload")
			}
			vals, err = refDecFloat64Plain(body[:8*n], n)
			consumed = 8 * n
		case EncXOR:
			vals, consumed, err = refDecFloat64XORCount(body, n)
		case EncLinear:
			vals, consumed, err = refDecFloat64LinearCount(body, n)
		default:
			return nil, fmt.Errorf("storage: bad float encoding %s", enc)
		}
		if err != nil {
			return nil, err
		}
		nulls, _, err := refDecodeNulls(body[consumed:], n)
		if err != nil {
			return nil, err
		}
		return &Float64Column{Vals: vals, Nulls: nulls}, nil
	case TypeString:
		if enc != EncDict {
			return nil, fmt.Errorf("storage: bad string encoding %s", enc)
		}
		off := 0
		dn, sz := binary.Uvarint(body[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("storage: bad dictionary size")
		}
		if dn > uint64(len(body)) { // each entry needs ≥1 length byte
			return nil, fmt.Errorf("storage: implausible dictionary size %d", dn)
		}
		off += sz
		col := NewStringColumn()
		dict := make([]string, dn)
		for i := range dict {
			l, sz := binary.Uvarint(body[off:])
			if sz <= 0 || off+sz+int(l) > len(body) {
				return nil, fmt.Errorf("storage: truncated dictionary entry %d", i)
			}
			off += sz
			dict[i] = string(body[off : off+int(l)])
			off += int(l)
		}
		codes := make([]uint32, n)
		for i := 0; i < n; i++ {
			c64, sz := binary.Uvarint(body[off:])
			if sz <= 0 || c64 >= dn && !(dn == 0 && c64 == 0) {
				return nil, fmt.Errorf("storage: bad code at row %d", i)
			}
			off += sz
			codes[i] = uint32(c64)
		}
		nulls, _, err := refDecodeNulls(body[off:], n)
		if err != nil {
			return nil, err
		}
		col.Codes = codes
		col.Dict = dict
		col.Nulls = nulls
		for i, s := range dict {
			col.index[s] = uint32(i)
		}
		return col, nil
	case TypeBool:
		need := (n + 7) / 8
		if len(body) < need {
			return nil, fmt.Errorf("storage: truncated bool payload")
		}
		col := NewBoolColumn()
		nulls, _, err := refDecodeNulls(body[need:], n)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			col.Vals.Append(body[i/8]&(1<<(i%8)) != 0)
		}
		col.Nulls = nulls
		return col, nil
	}
	return nil, fmt.Errorf("storage: unknown column type %d", typ)
}

func refDecInt64DeltaCount(b []byte, n int) ([]int64, int, error) {
	vals := make([]int64, n)
	var prev int64
	off := 0
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(b[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated delta payload at row %d", i)
		}
		off += sz
		prev += d
		vals[i] = prev
	}
	return vals, off, nil
}

func refDecInt64RLECount(b []byte, n int) ([]int64, int, error) {
	// Runs compress, so n may legitimately dwarf len(b); clamp the upfront
	// capacity to the input size and let append grow on real data.
	cap0 := n
	if cap0 > len(b) {
		cap0 = len(b)
	}
	vals := make([]int64, 0, cap0)
	off := 0
	for len(vals) < n {
		v, sz := binary.Varint(b[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated RLE value")
		}
		off += sz
		run, sz := binary.Uvarint(b[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated RLE run")
		}
		off += sz
		if len(vals)+int(run) > n {
			return nil, 0, fmt.Errorf("storage: RLE overflow")
		}
		for k := uint64(0); k < run; k++ {
			vals = append(vals, v)
		}
	}
	return vals, off, nil
}

func refDecFloat64XORCount(b []byte, n int) ([]float64, int, error) {
	vals := make([]float64, n)
	var prev uint64
	off := 0
	word := make([]byte, 8)
	for i := 0; i < n; i++ {
		x, sz, err := refReadPackedWord(b, off, word)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: XOR payload row %d: %w", i, err)
		}
		off += sz
		prev ^= x
		vals[i] = math.Float64frombits(prev)
	}
	return vals, off, nil
}
