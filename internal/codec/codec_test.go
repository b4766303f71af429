package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestRoundTrip encodes one value of every primitive and decodes them back
// in order.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.Byte(0xfe)
	e.Bool(true)
	e.Bool(false)
	e.Uvarint(math.MaxUint64)
	e.Varint(math.MinInt64)
	e.Varint(-3)
	e.Float(-0.25)
	e.Float(math.Inf(1))
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.Str("température")
	e.Strs([]string{"a", "", "bc"})
	e.Strs(nil)

	d := NewDecoder(e)
	got := []any{d.Byte(), d.Bool(), d.Bool(), d.Uvarint(), d.Varint(), d.Varint(),
		d.Float(), d.Float(), d.Bytes(), d.Bytes(), d.Str(), d.Strs(), d.Strs()}
	want := []any{byte(0xfe), true, false, uint64(math.MaxUint64), int64(math.MinInt64), int64(-3),
		-0.25, math.Inf(1), []byte{1, 2, 3}, []byte{}, "température", []string{"a", "", "bc"}, []string(nil)}
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestFirstErrorSticks: after a failed read every later read returns the
// zero value, even where the input would have held one, and Err and End
// report the first failure.
func TestFirstErrorSticks(t *testing.T) {
	var e Encoder
	e.Str("abc")
	e.Uvarint(7)
	d := NewDecoder(e[:2]) // the string's prefix says 3 bytes; 1 follows
	if s := d.Str(); s != "" {
		t.Fatalf("short string read %q", s)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("want an error for a short string")
	}
	d.Fail(errors.New("second"))
	if d.Byte() != 0 || d.Bool() || d.Uvarint() != 0 || d.Varint() != 0 || d.Float() != 0 ||
		d.Bytes() != nil || d.Str() != "" || d.Strs() != nil || d.Count(1) != 0 {
		t.Fatal("a read after the failure returned a value")
	}
	if d.Err() != first || d.End() != first {
		t.Fatalf("Err %v, End %v, want the first failure %v", d.Err(), d.End(), first)
	}
}

// TestCountRefusesPrefixBeyondInput: a list count whose items cannot fit in
// the rest of the input fails instead of being returned to size an
// allocation; one that fits is returned.
func TestCountRefusesPrefixBeyondInput(t *testing.T) {
	var e Encoder
	e.Uvarint(3)
	e = append(e, make([]byte, 6)...)
	if n := NewDecoder(e).Count(2); n != 3 {
		t.Fatalf("Count(2) over 6 bytes = %d, want 3", n)
	}
	d := NewDecoder(e)
	if n := d.Count(3); n != 0 || d.Err() == nil {
		t.Fatalf("Count(3) over 6 bytes = %d, %v; want a failure", n, d.Err())
	}
	var big Encoder
	big.Uvarint(1 << 62)
	huge := NewDecoder(big)
	if n := huge.Count(1); n != 0 || huge.Err() == nil {
		t.Fatalf("Count of 2^62 over an empty rest = %d, %v; want a failure", n, huge.Err())
	}
}

// TestBytesAtEnd: a byte string that ends the input is read whole and
// aliases it; a missing or short one fails.
func TestBytesAtEnd(t *testing.T) {
	var e Encoder
	e.Bytes([]byte("tail"))
	d := NewDecoder(e)
	b := d.Bytes()
	if string(b) != "tail" || d.End() != nil {
		t.Fatalf("Bytes at the end = %q, %v", b, d.End())
	}
	if &b[0] != &e[1] {
		t.Fatal("Bytes copied instead of aliasing the input")
	}
	if b := NewDecoder(e[:len(e)-1]).Bytes(); b != nil {
		t.Fatalf("short Bytes = %q, want nil", b)
	}
	d = NewDecoder(nil)
	if b := d.Bytes(); b != nil || d.Err() == nil {
		t.Fatalf("Bytes of empty input = %q, %v; want a failure", b, d.Err())
	}
}

// TestNonCanonicalRefused: a boolean byte other than 0 or 1 and a map with
// keys out of order or repeated fail, so no two inputs decode alike; a map
// round-trips with its keys sorted.
func TestNonCanonicalRefused(t *testing.T) {
	if d := NewDecoder([]byte{2}); d.Bool() || d.Err() == nil {
		t.Fatalf("Bool of byte 2: err %v, want a failure", d.Err())
	}
	var e Encoder
	e.FloatMap(map[string]float64{"b": 2, "a": 1, "c": -0.5})
	got := NewDecoder(e).FloatMap()
	if want := map[string]float64{"a": 1, "b": 2, "c": -0.5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("FloatMap round trip = %v, want %v", got, want)
	}
	if e[1] != 1 || e[2] != 'a' {
		t.Fatalf("FloatMap did not write its keys sorted: % x", e)
	}
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}} {
		var bad Encoder
		bad.Uvarint(2)
		for _, k := range keys {
			bad.Str(k)
			bad.Float(1)
		}
		d := NewDecoder(bad)
		if m := d.FloatMap(); m != nil || d.Err() == nil {
			t.Fatalf("FloatMap with keys %q = %v, %v; want a failure", keys, m, d.Err())
		}
	}
}

// TestEndRefusesTrailingBytes: input left after the last read is an error.
func TestEndRefusesTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.Byte()
	if err := d.End(); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("End with a byte left = %v", err)
	}
}

// TestVarintMatchesBinary pins Uvarint and Varint to encoding/binary's
// reading of the same bytes: value, bytes consumed and failure, on one- to
// eleven-byte inputs including overlong, overflowing and truncated ones.
// The one difference is deliberate: an overlong varint, which binary reads,
// fails here, so that accepted input re-encodes to the same bytes.
func TestVarintMatchesBinary(t *testing.T) {
	inputs := [][]byte{nil, {0}, {0x7f}, {0x80}, {0x80, 0}, {0xff, 0x7f, 9},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		b := make([]byte, 1+rng.Intn(11))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				b[i] |= 0x80
			}
		}
		inputs = append(inputs, b)
	}
	// canonical is binary's byte count, or 0 for an overlong spelling.
	canonical := func(b []byte, n int) int {
		if n > 1 && b[n-1] == 0 {
			return 0
		}
		return n
	}
	for _, b := range inputs {
		wantU, n := binary.Uvarint(b)
		n = canonical(b, n)
		d := NewDecoder(b)
		if got := d.Uvarint(); (n > 0) != (d.Err() == nil) || n > 0 && (got != wantU || d.off != n) {
			t.Fatalf("Uvarint(% x) = %d after %d bytes, err %v; binary reads %d, n %d", b, got, d.off, d.Err(), wantU, n)
		}
		wantV, n := binary.Varint(b)
		n = canonical(b, n)
		d = NewDecoder(b)
		if got := d.Varint(); (n > 0) != (d.Err() == nil) || n > 0 && (got != wantV || d.off != n) {
			t.Fatalf("Varint(% x) = %d after %d bytes, err %v; binary reads %d, n %d", b, got, d.off, d.Err(), wantV, n)
		}
	}
}
