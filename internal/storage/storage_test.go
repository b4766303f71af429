package storage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"datalaws/internal/expr"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(0)
	for i := 0; i < 130; i++ {
		b.Append(i%3 == 0)
	}
	if b.Len() != 130 {
		t.Fatalf("len = %d", b.Len())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
	if b.Count() != 44 {
		t.Fatalf("count = %d, want 44", b.Count())
	}
	b.Set(1, true)
	if !b.Get(1) {
		t.Fatal("Set failed")
	}
	b.Set(1, false)
	if b.Get(1) {
		t.Fatal("clear failed")
	}
	if b.Get(-1) || b.Get(1000) {
		t.Fatal("out of range must be false")
	}
	c := b.Clone()
	c.Set(0, false)
	if !b.Get(0) {
		t.Fatal("Clone aliases")
	}
}

func TestBitmapAny(t *testing.T) {
	b := NewBitmap(0)
	for i := 0; i < 10; i++ {
		b.Append(false)
	}
	if b.Any() {
		t.Fatal("Any on all-clear")
	}
	b.Append(true)
	if !b.Any() {
		t.Fatal("Any missed set bit")
	}
}

func TestInt64Column(t *testing.T) {
	c := NewInt64Column()
	c.Append(1)
	c.AppendNull()
	c.Append(-7)
	if c.Len() != 3 || c.Type() != TypeInt64 {
		t.Fatal("shape")
	}
	if !c.IsNull(1) || c.IsNull(0) {
		t.Fatal("null tracking")
	}
	if v := c.Value(0); v.K != expr.KindInt || v.I != 1 {
		t.Fatalf("Value(0) = %v", v)
	}
	if v := c.Value(1); !v.IsNull() {
		t.Fatalf("Value(1) = %v", v)
	}
	if err := c.AppendValue(expr.Str("x")); err == nil {
		t.Fatal("want type error")
	}
	if err := c.AppendValue(expr.Float(2.9)); err != nil || c.Vals[3] != 2 {
		t.Fatalf("float coercion: %v %v", err, c.Vals)
	}
	if err := c.AppendValue(expr.Bool(true)); err != nil || c.Vals[4] != 1 {
		t.Fatal("bool coercion")
	}
}

func TestFloat64Column(t *testing.T) {
	c := NewFloat64Column()
	c.Append(1.5)
	c.AppendNull()
	if err := c.AppendValue(expr.Int(3)); err != nil || c.Vals[2] != 3 {
		t.Fatal("int coercion")
	}
	if err := c.AppendValue(expr.Str("x")); err == nil {
		t.Fatal("want type error")
	}
	if v := c.Value(0); v.F != 1.5 {
		t.Fatalf("Value = %v", v)
	}
}

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumn()
	for i := 0; i < 100; i++ {
		c.Append([]string{"a", "b", "c"}[i%3])
	}
	if c.Cardinality() != 3 {
		t.Fatalf("cardinality = %d", c.Cardinality())
	}
	if c.Get(4) != "b" {
		t.Fatalf("Get(4) = %q", c.Get(4))
	}
	c.AppendNull()
	if c.Get(100) != "" || !c.IsNull(100) {
		t.Fatal("null handling")
	}
	if err := c.AppendValue(expr.Int(1)); err == nil {
		t.Fatal("want type error")
	}
}

func TestBoolColumn(t *testing.T) {
	c := NewBoolColumn()
	c.Append(true)
	c.Append(false)
	c.AppendNull()
	if err := c.AppendValue(expr.Int(1)); err != nil {
		t.Fatal(err)
	}
	if v := c.Value(0); !v.B {
		t.Fatal("Value(0)")
	}
	if v := c.Value(3); !v.B {
		t.Fatal("int→bool coercion")
	}
	if !c.IsNull(2) {
		t.Fatal("null")
	}
	if err := c.AppendValue(expr.Str("t")); err == nil {
		t.Fatal("want type error")
	}
}

func roundTrip(t *testing.T, c Column) Column {
	t.Helper()
	b := EncodeColumn(c)
	d, err := DecodeColumn(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Len() != c.Len() || d.Type() != c.Type() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < c.Len(); i++ {
		a, b := c.Value(i), d.Value(i)
		if a.IsNull() != b.IsNull() {
			t.Fatalf("null mismatch at %d", i)
		}
		if !a.IsNull() && !expr.Equal(a, b) {
			t.Fatalf("value mismatch at %d: %v vs %v", i, a, b)
		}
	}
	return d
}

func TestEncodeDecodeInt64Sequential(t *testing.T) {
	c := NewInt64Column()
	for i := int64(0); i < 1000; i++ {
		c.Append(1000000 + i)
	}
	b := EncodeColumn(c)
	// Sequential data must pick delta and be far smaller than plain.
	if Encoding(b[1]) != EncDelta {
		t.Fatalf("encoding = %s, want delta", Encoding(b[1]))
	}
	if len(b) > 2100 {
		t.Fatalf("delta encoding too large: %d bytes", len(b))
	}
	roundTrip(t, c)
}

func TestEncodeDecodeInt64RLE(t *testing.T) {
	c := NewInt64Column()
	for i := 0; i < 1000; i++ {
		c.Append(int64(i / 250)) // 4 long runs
	}
	b := EncodeColumn(c)
	if Encoding(b[1]) != EncRLE {
		t.Fatalf("encoding = %s, want rle", Encoding(b[1]))
	}
	if len(b) > 40 {
		t.Fatalf("RLE too large: %d", len(b))
	}
	roundTrip(t, c)
}

func TestEncodeDecodeInt64Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewInt64Column()
	for i := 0; i < 500; i++ {
		c.Append(rng.Int63() - rng.Int63())
		if i%17 == 0 {
			c.AppendNull()
		}
	}
	roundTrip(t, c)
}

func TestEncodeDecodeFloatConstant(t *testing.T) {
	c := NewFloat64Column()
	for i := 0; i < 1000; i++ {
		c.Append(3.14159)
	}
	b := EncodeColumn(c)
	if Encoding(b[1]) != EncXOR {
		t.Fatalf("encoding = %s, want xor", Encoding(b[1]))
	}
	// First value costs 9 bytes, repeats 1 byte each.
	if len(b) > 1100 {
		t.Fatalf("XOR too large for constant column: %d", len(b))
	}
	roundTrip(t, c)
}

func TestEncodeDecodeFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewFloat64Column()
	for i := 0; i < 500; i++ {
		c.Append(rng.NormFloat64() * 1e6)
	}
	c.AppendNull()
	c.Append(math.Inf(1))
	c.Append(math.NaN())
	b := EncodeColumn(c)
	d, err := DecodeColumn(b)
	if err != nil {
		t.Fatal(err)
	}
	dc := d.(*Float64Column)
	cc := c
	for i := range cc.Vals {
		if cc.Nulls.Get(i) != dc.Nulls.Get(i) {
			t.Fatalf("null mismatch at %d", i)
		}
		a, bv := cc.Vals[i], dc.Vals[i]
		if math.IsNaN(a) != math.IsNaN(bv) || (!math.IsNaN(a) && a != bv) {
			t.Fatalf("value mismatch at %d: %v vs %v", i, a, bv)
		}
	}
}

func TestEncodeDecodeString(t *testing.T) {
	c := NewStringColumn()
	words := []string{"pulsar", "quasar", "black hole", "grb", ""}
	for i := 0; i < 300; i++ {
		c.Append(words[i%len(words)])
	}
	c.AppendNull()
	d := roundTrip(t, c).(*StringColumn)
	if d.Cardinality() != len(words) {
		t.Fatalf("dict size = %d", d.Cardinality())
	}
	// Decoded column must keep accepting appends (index rebuilt).
	d.Append("pulsar")
	if d.Cardinality() != len(words) {
		t.Fatal("index not rebuilt after decode")
	}
}

func TestEncodeDecodeBool(t *testing.T) {
	c := NewBoolColumn()
	for i := 0; i < 77; i++ {
		c.Append(i%2 == 0)
	}
	c.AppendNull()
	roundTrip(t, c)
}

func TestDecodeColumnErrors(t *testing.T) {
	if _, err := DecodeColumn(nil); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := DecodeColumn([]byte{99, 0, 1, 0}); err == nil {
		t.Fatal("want error for unknown type")
	}
	// Truncated payload.
	c := NewInt64Column()
	for i := int64(0); i < 100; i++ {
		c.Append(i * 1000003)
	}
	b := EncodeColumn(c)
	if _, err := DecodeColumn(b[:len(b)/2]); err == nil {
		t.Fatal("want error for truncated frame")
	}
	// A dictionary entry whose length prefix overflows int: the bounds
	// check must not wrap negative and slice past the frame.
	huge := []byte{byte(TypeString), byte(EncDict), 1, 1, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xd5, 0xd5, 0x01, 0, 0}
	if _, err := DecodeColumn(huge); err == nil {
		t.Fatal("want error for an overflowing dictionary entry length")
	}
}

func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		c := NewInt64Column()
		for _, v := range vals {
			c.Append(v)
		}
		b := EncodeColumn(c)
		d, err := DecodeColumn(b)
		if err != nil {
			return false
		}
		dv := d.(*Int64Column).Vals
		if len(dv) != len(c.Vals) {
			return false
		}
		for i := range dv {
			if dv[i] != c.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFloatRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		c := NewFloat64Column()
		for _, v := range vals {
			c.Append(v)
		}
		b := EncodeColumn(c)
		d, err := DecodeColumn(b)
		if err != nil {
			return false
		}
		dv := d.(*Float64Column).Vals
		if len(dv) != len(c.Vals) {
			return false
		}
		for i := range dv {
			if math.Float64bits(dv[i]) != math.Float64bits(c.Vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// chunkShapedFrames encodes one 16,384-row chunk shaped like the exact
// benchmark table: a sequential BIGINT (delta), a BIGINT uniform over
// 0–999 (delta with one- and two-byte varints) and a DOUBLE of 10 + N(0,1)
// (XOR), none with NULLs.
func chunkShapedFrames() map[string][]byte {
	const n = 16384
	rng := rand.New(rand.NewSource(1))
	a, g, v := NewInt64Column(), NewInt64Column(), NewFloat64Column()
	for i := 0; i < n; i++ {
		a.Append(int64(i))
		g.Append(rng.Int63n(1000))
		v.Append(10 + rng.NormFloat64())
	}
	return map[string][]byte{"a": EncodeColumn(a), "g": EncodeColumn(g), "v": EncodeColumn(v)}
}

// TestDecodeColumnAllocBudget pins the decoders' allocations: a null-free
// BIGINT or DOUBLE frame decodes into the column, its value slice and one
// empty null bitmap (struct and words) — four allocations, however many
// rows.
func TestDecodeColumnAllocBudget(t *testing.T) {
	for name, frame := range chunkShapedFrames() {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeColumn(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("decoding column %s: %.0f allocations, budget 4", name, allocs)
		}
	}
}

// BenchmarkDecodeColumn decodes each frame of one chunk-shaped set.
func BenchmarkDecodeColumn(b *testing.B) {
	frames := chunkShapedFrames()
	for _, name := range []string{"a", "g", "v"} {
		frame := frames[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeColumn(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
