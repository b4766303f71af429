package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoding identifies the physical layout of a serialized column.
type Encoding uint8

// Encodings. EncodeColumn picks the smallest candidate for the column's
// type; DecodeColumn dispatches on the stored tag.
const (
	EncPlain  Encoding = iota
	EncDelta           // zig-zag varint deltas (sorted/sequential ints)
	EncRLE             // run-length (low-cardinality ints)
	EncDict            // dictionary codes + string table
	EncXOR             // byte-aligned XOR chaining for floats
	EncLinear          // linear-law fit + XOR residuals vs the fitted line
)

func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDelta:
		return "delta"
	case EncRLE:
		return "rle"
	case EncDict:
		return "dict"
	case EncXOR:
		return "xor"
	case EncLinear:
		return "linear"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// --- int64 payloads ---

func encInt64Plain(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func decInt64Plain(b []byte, n int) ([]int64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storage: plain int payload %d bytes, want %d", len(b), 8*n)
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals, nil
}

func encInt64Delta(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*2)
	var prev int64
	tmp := make([]byte, binary.MaxVarintLen64)
	for _, v := range vals {
		n := binary.PutVarint(tmp, v-prev)
		buf = append(buf, tmp[:n]...)
		prev = v
	}
	return buf
}

func encInt64RLE(vals []int64) []byte {
	var buf []byte
	tmp := make([]byte, binary.MaxVarintLen64)
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		n := binary.PutVarint(tmp, vals[i])
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp, uint64(j-i))
		buf = append(buf, tmp[:n]...)
		i = j
	}
	return buf
}

// --- float64 payloads ---

func encFloat64Plain(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func decFloat64Plain(b []byte, n int) ([]float64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storage: plain float payload %d bytes, want %d", len(b), 8*n)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals, nil
}

// appendPackedWord appends one XOR word: a zero word costs one byte (0x88,
// lead=8 encoded as 8<<4), otherwise a header byte packs the leading- and
// trailing-zero byte counts followed by the nonzero middle bytes. word is an
// 8-byte scratch buffer the caller reuses across values.
func appendPackedWord(buf []byte, x uint64, word []byte) []byte {
	if x == 0 {
		return append(buf, 0x88)
	}
	binary.BigEndian.PutUint64(word, x)
	lead := 0
	for lead < 8 && word[lead] == 0 {
		lead++
	}
	trail := 0
	for trail < 8-lead && word[7-trail] == 0 {
		trail++
	}
	buf = append(buf, byte(lead<<4|trail))
	return append(buf, word[lead:8-trail]...)
}

// readPackedWord reads one appendPackedWord frame starting at b[off],
// returning the word and the bytes consumed.
func readPackedWord(b []byte, off int) (uint64, int, error) {
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
	var m uint64
	for _, c := range b[off+1 : off+1+mid] {
		m = m<<8 | uint64(c)
	}
	return m << (8 * trail), 1 + mid, nil
}

// readPackedWords reads len(dst) consecutive appendPackedWord frames from
// b, storing each word's bits in dst, and returns the bytes consumed. The
// XOR and linear decoders then undo their chaining in place. While eight
// bytes follow a header, the middle bytes come from one big-endian load:
// shifting right drops the bytes past the frame and shifting left restores
// the trailing zeros. The last frames, and corrupt ones, go through
// readPackedWord; an error names the row it stopped at.
func readPackedWords(b []byte, dst []float64) (int, error) {
	off := 0
	for i := range dst {
		if off+9 <= len(b) {
			h := b[off]
			if h>>4 == 8 {
				dst[i] = 0
				off++
				continue
			}
			if mid := 8 - int(h>>4) - int(h&0x0f); mid > 0 {
				x := binary.BigEndian.Uint64(b[off+1:]) >> (8 * (8 - mid)) << (8 * (h & 0x0f))
				dst[i] = math.Float64frombits(x)
				off += 1 + mid
				continue
			}
		}
		x, sz, err := readPackedWord(b, off)
		if err != nil {
			return 0, fmt.Errorf("row %d: %w", i, err)
		}
		dst[i] = math.Float64frombits(x)
		off += sz
	}
	return off, nil
}

// encFloat64XOR chains values through XOR with the previous value and stores
// only the nonzero middle bytes of each XOR word, with a header byte packing
// the leading- and trailing-zero byte counts. Repeated values cost one byte.
func encFloat64XOR(vals []float64) []byte {
	var buf []byte
	var prev uint64
	word := make([]byte, 8)
	for _, v := range vals {
		bits := math.Float64bits(v)
		buf = appendPackedWord(buf, bits^prev, word)
		prev = bits
	}
	return buf
}

// EncodeXORFloats packs a float64 slice with the XOR-chaining codec the
// column encoder uses for EncXOR frames (Gorilla-style: consecutive equal or
// close values share high bits, so their XOR has few nonzero bytes). It is
// exported for residual streams — internal/compress stores model residuals
// through it — so the engine has exactly one XOR float implementation.
func EncodeXORFloats(vals []float64) []byte { return encFloat64XOR(vals) }

// DecodeXORFloats reverses EncodeXORFloats for exactly n values, returning
// the values and the payload bytes consumed.
func DecodeXORFloats(b []byte, n int) ([]float64, int, error) {
	return decFloat64XORCount(b, n)
}

// linPred evaluates the fitted line a + b·i. math.FMA keeps the evaluation
// bit-identical across architectures (the compiler may otherwise fuse or not
// fuse the multiply-add differently per platform), which EncLinear's
// bit-exact reconstruction depends on: encoder and decoder must predict the
// same float for frames to round-trip across machines.
func linPred(a, b float64, i int) float64 { return math.FMA(b, float64(i), a) }

// fitLinear least-squares fits vals against the row index, ignoring NaN/Inf.
// The parameters are stored in the frame, so the fit itself only affects
// compression ratio, never correctness.
func fitLinear(vals []float64) (a, b float64) {
	var n, sx, sy, sxx, sxy float64
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		x := float64(i)
		n++
		sx += x
		sy += v
		sxx += x * x
		sxy += x * v
	}
	if n < 2 {
		return 0, 0
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / det
	a = (sy - b*sx) / n
	if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return 0, 0
	}
	return a, b
}

// encFloat64Linear is the paper-flavored law-as-compressor encoding: fit a
// linear law to the column, store the two parameters, then store each value
// as the XOR of its bits against the prediction's bits — lossless for every
// input (NaN payloads included), and near-free when the data follows the
// law. Returns nil when the column is too short to be worth a 16-byte
// parameter header.
func encFloat64Linear(vals []float64) []byte {
	if len(vals) < 4 {
		return nil
	}
	a, b := fitLinear(vals)
	buf := make([]byte, 16, 16+len(vals))
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(a))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b))
	word := make([]byte, 8)
	for i, v := range vals {
		x := math.Float64bits(v) ^ math.Float64bits(linPred(a, b, i))
		buf = appendPackedWord(buf, x, word)
	}
	return buf
}

func decFloat64LinearCount(b []byte, n int) ([]float64, int, error) {
	if len(b) < 16 {
		return nil, 0, fmt.Errorf("storage: truncated linear header")
	}
	a := math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	slope := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	vals := make([]float64, n)
	off, err := readPackedWords(b[16:], vals)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: linear payload %w", err)
	}
	for i, x := range vals {
		vals[i] = math.Float64frombits(math.Float64bits(linPred(a, slope, i)) ^ math.Float64bits(x))
	}
	return vals, 16 + off, nil
}

// --- column framing ---

func encodeNulls(nulls *Bitmap) []byte {
	if nulls == nil || !nulls.Any() {
		return []byte{0}
	}
	out := []byte{1}
	tmp := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(tmp, uint64(nulls.Len()))
	out = append(out, tmp[:n]...)
	for i := 0; i < nulls.Len(); i += 8 {
		var b byte
		for k := 0; k < 8 && i+k < nulls.Len(); k++ {
			if nulls.Get(i + k) {
				b |= 1 << k
			}
		}
		out = append(out, b)
	}
	return out
}

func decodeNulls(b []byte, n int) (*Bitmap, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("storage: missing null marker")
	}
	if b[0] == 0 {
		return NewBitmap(n), 1, nil
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
	return bitmapFromBytes(b[off:off+need], n), off + need, nil
}

// bitmapFromBytes builds an n-bit bitmap from the LSB-first byte packing
// encodeNulls and the bool payload use (bit i is bit i%8 of byte i/8),
// eight bytes to a word. Bits past n in the last byte are dropped, so
// the bitmap holds exactly the first n bits.
func bitmapFromBytes(p []byte, n int) *Bitmap {
	bm := NewBitmap(n)
	w := 0
	for ; len(p) >= 8; p, w = p[8:], w+1 {
		bm.bits[w] = binary.LittleEndian.Uint64(p)
	}
	for k, c := range p {
		bm.bits[w] |= uint64(c) << (8 * k)
	}
	if rem := n % 64; rem != 0 {
		bm.bits[len(bm.bits)-1] &= 1<<rem - 1
	}
	return bm
}

// EncodeColumn serializes c, selecting the smallest applicable encoding.
// The frame is [type][encoding][uvarint rows][payload…][nulls].
func EncodeColumn(c Column) []byte {
	header := func(enc Encoding, n int) []byte {
		out := []byte{byte(c.Type()), byte(enc)}
		tmp := make([]byte, binary.MaxVarintLen64)
		sz := binary.PutUvarint(tmp, uint64(n))
		return append(out, tmp[:sz]...)
	}
	switch col := c.(type) {
	case *Int64Column:
		plain := encInt64Plain(col.Vals)
		delta := encInt64Delta(col.Vals)
		rle := encInt64RLE(col.Vals)
		enc, payload := EncPlain, plain
		if len(delta) < len(payload) {
			enc, payload = EncDelta, delta
		}
		if len(rle) < len(payload) {
			enc, payload = EncRLE, rle
		}
		out := header(enc, len(col.Vals))
		out = append(out, payload...)
		return append(out, encodeNulls(col.Nulls)...)
	case *Float64Column:
		plain := encFloat64Plain(col.Vals)
		xor := encFloat64XOR(col.Vals)
		enc, payload := EncPlain, plain
		if len(xor) < len(payload) {
			enc, payload = EncXOR, xor
		}
		if linear := encFloat64Linear(col.Vals); linear != nil && len(linear) < len(payload) {
			enc, payload = EncLinear, linear
		}
		out := header(enc, len(col.Vals))
		out = append(out, payload...)
		return append(out, encodeNulls(col.Nulls)...)
	case *StringColumn:
		out := header(EncDict, len(col.Codes))
		tmp := make([]byte, binary.MaxVarintLen64)
		sz := binary.PutUvarint(tmp, uint64(len(col.Dict)))
		out = append(out, tmp[:sz]...)
		for _, s := range col.Dict {
			sz = binary.PutUvarint(tmp, uint64(len(s)))
			out = append(out, tmp[:sz]...)
			out = append(out, s...)
		}
		for _, code := range col.Codes {
			sz = binary.PutUvarint(tmp, uint64(code))
			out = append(out, tmp[:sz]...)
		}
		return append(out, encodeNulls(col.Nulls)...)
	case *BoolColumn:
		n := col.Len()
		out := header(EncPlain, n)
		for i := 0; i < n; i += 8 {
			var b byte
			for k := 0; k < 8 && i+k < n; k++ {
				if col.Vals.Get(i + k) {
					b |= 1 << k
				}
			}
			out = append(out, b)
		}
		return append(out, encodeNulls(col.Nulls)...)
	}
	panic(fmt.Sprintf("storage: unknown column %T", c))
}

// maxDecodeRows bounds the row count a column frame may claim, matching the
// chunk-size ceiling the table layer enforces when persisting. Anything
// larger is corruption, rejected before it can size an allocation.
const maxDecodeRows = 1 << 31

// DecodeColumn reverses EncodeColumn.
func DecodeColumn(b []byte) (Column, error) {
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
			vals, err = decInt64Plain(body[:8*n], n)
			consumed = 8 * n
		case EncDelta:
			vals, consumed, err = decInt64DeltaCount(body, n)
		case EncRLE:
			vals, consumed, err = decInt64RLECount(body, n)
		default:
			return nil, fmt.Errorf("storage: bad int encoding %s", enc)
		}
		if err != nil {
			return nil, err
		}
		nulls, _, err := decodeNulls(body[consumed:], n)
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
			vals, err = decFloat64Plain(body[:8*n], n)
			consumed = 8 * n
		case EncXOR:
			vals, consumed, err = decFloat64XORCount(body, n)
		case EncLinear:
			vals, consumed, err = decFloat64LinearCount(body, n)
		default:
			return nil, fmt.Errorf("storage: bad float encoding %s", enc)
		}
		if err != nil {
			return nil, err
		}
		nulls, _, err := decodeNulls(body[consumed:], n)
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
			if sz <= 0 || l > uint64(len(body)-off-sz) {
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
		nulls, _, err := decodeNulls(body[off:], n)
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
		nulls, _, err := decodeNulls(body[need:], n)
		if err != nil {
			return nil, err
		}
		return &BoolColumn{Vals: bitmapFromBytes(body[:need], n), Nulls: nulls}, nil
	}
	return nil, fmt.Errorf("storage: unknown column type %d", typ)
}

// decInt64DeltaCount decodes n zig-zag varint deltas. Deltas of sequential
// and small-range columns fit one or two bytes, which are decoded inline;
// longer ones go through binary.Varint.
func decInt64DeltaCount(b []byte, n int) ([]int64, int, error) {
	vals := make([]int64, n)
	var prev int64
	off := 0
	for i := range vals {
		var ux uint64
		if off+1 < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else {
			d, sz := binary.Varint(b[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("storage: truncated delta payload at row %d", i)
			}
			off += sz
			prev += d
			vals[i] = prev
			continue
		}
		prev += int64(ux>>1) ^ -int64(ux&1)
		vals[i] = prev
	}
	return vals, off, nil
}

func decInt64RLECount(b []byte, n int) ([]int64, int, error) {
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

func decFloat64XORCount(b []byte, n int) ([]float64, int, error) {
	vals := make([]float64, n)
	off, err := readPackedWords(b, vals)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: XOR payload %w", err)
	}
	var prev uint64
	for i, x := range vals {
		prev ^= math.Float64bits(x)
		vals[i] = math.Float64frombits(prev)
	}
	return vals, off, nil
}
