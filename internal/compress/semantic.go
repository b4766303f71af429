// Package compress implements the paper's "true semantic compression"
// (§4.1): a measurement column is replaced by the captured model's parameter
// table plus per-row residuals. Lossless mode stores exact float residuals
// (XOR-packed); bounded-loss mode quantizes residuals to a caller-chosen
// absolute error, where the win over generic byte compressors comes from —
// the user model absorbs the structure, leaving only small noise to encode.
// A flate (gzip-class) baseline is provided for the SPARTAN-style
// comparison.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"datalaws/internal/modelstore"
	"datalaws/internal/storage"
	"datalaws/internal/table"
)

// Mode selects the residual encoding.
type Mode uint8

// Compression modes.
const (
	// Lossless stores exact float64 residuals with XOR chaining; the
	// original values are reconstructed bit-exactly.
	Lossless Mode = iota
	// BoundedLoss quantizes residuals to ±Epsilon/2 absolute error and
	// varint-encodes the quantum counts.
	BoundedLoss
)

// CompressedColumn is a model-compressed representation of one numeric
// column as of one view of its table. Reconstruction requires a view with
// the same rows' group/input columns and the captured model (whose
// parameter table is priced into SizeBytes).
type CompressedColumn struct {
	ModelName string
	Mode      Mode
	Epsilon   float64
	N         int
	// Payload is the residual stream (XOR floats or varint quanta).
	Payload []byte
	// RawRows carries exact values for rows whose group has no usable fit;
	// RawMask marks those rows.
	RawMask []byte
	RawVals []float64
}

// SizeBytes is the total storage footprint: residual payload, raw-row
// spill, mask, and the model parameter table itself (the honest accounting
// of the paper's Table 1, which prices the parameter table at 640 KB).
func (c *CompressedColumn) SizeBytes(m *modelstore.CapturedModel) int {
	return len(c.Payload) + len(c.RawMask) + 8*len(c.RawVals) + m.ParamSizeBytes()
}

// CompressOutput compresses the model's output column as of view v: the
// observed values and the inputs the predictions are made from are the same
// rows. epsilon is the absolute error bound for BoundedLoss and ignored for
// Lossless.
func CompressOutput(v *table.ChunkView, m *modelstore.CapturedModel, mode Mode, epsilon float64) (*CompressedColumn, error) {
	if mode == BoundedLoss && (epsilon <= 0 || math.IsNaN(epsilon)) {
		return nil, fmt.Errorf("compress: BoundedLoss requires epsilon > 0, got %g", epsilon)
	}
	group, cols, err := v.Numeric(m.Spec.GroupBy, append([]string{m.Model.Output}, m.Model.Inputs...))
	if err != nil {
		return nil, err
	}
	n := v.Rows()
	observed := cols[0]
	preds, ok := predictions(m, group, cols[1:], n)
	cc := &CompressedColumn{
		ModelName: m.Spec.Name,
		Mode:      mode,
		Epsilon:   epsilon,
		N:         n,
		RawMask:   make([]byte, (n+7)/8),
	}
	resid := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if !ok[i] {
			cc.RawMask[i/8] |= 1 << (i % 8)
			cc.RawVals = append(cc.RawVals, observed[i])
			continue
		}
		resid = append(resid, observed[i]-preds[i])
	}
	switch mode {
	case Lossless:
		cc.Payload = storage.EncodeXORFloats(resid)
	case BoundedLoss:
		cc.Payload = encodeQuantized(resid, epsilon)
	default:
		return nil, fmt.Errorf("compress: unknown mode %d", mode)
	}
	return cc, nil
}

// Decompress reconstructs the column. For Lossless the result is bit-exact;
// for BoundedLoss every value is within Epsilon/2 of the original.
func (c *CompressedColumn) Decompress(v *table.ChunkView, m *modelstore.CapturedModel) ([]float64, error) {
	if m.Spec.Name != c.ModelName {
		return nil, fmt.Errorf("compress: column was compressed with model %q, got %q", c.ModelName, m.Spec.Name)
	}
	if v.Rows() != c.N {
		return nil, fmt.Errorf("compress: view has %d rows, compressed column has %d", v.Rows(), c.N)
	}
	group, inputs, err := v.Numeric(m.Spec.GroupBy, m.Model.Inputs)
	if err != nil {
		return nil, err
	}
	preds, ok := predictions(m, group, inputs, c.N)
	var resid []float64
	switch c.Mode {
	case Lossless:
		// Residual count is exact: every row is either model-covered (one
		// residual) or spilled raw, so the XOR stream holds N - |raw| values.
		resid, _, err = storage.DecodeXORFloats(c.Payload, c.N-len(c.RawVals))
	case BoundedLoss:
		resid, err = decodeQuantized(c.Payload, c.Epsilon)
	default:
		return nil, fmt.Errorf("compress: unknown mode %d", c.Mode)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.N)
	ri, raw := 0, 0
	for i := 0; i < c.N; i++ {
		if c.RawMask[i/8]&(1<<(i%8)) != 0 {
			if raw >= len(c.RawVals) {
				return nil, fmt.Errorf("compress: raw spill underflow at row %d", i)
			}
			out[i] = c.RawVals[raw]
			raw++
			continue
		}
		if !ok[i] {
			return nil, fmt.Errorf("compress: row %d lost its model coverage", i)
		}
		if ri >= len(resid) {
			return nil, fmt.Errorf("compress: residual underflow at row %d", i)
		}
		out[i] = preds[i] + resid[ri]
		ri++
	}
	return out, nil
}

// predictions evaluates the model for each of n rows given their group keys
// (nil for an ungrouped model) and input columns; ok[i] is false when the
// row's group has no usable parameters.
func predictions(m *modelstore.CapturedModel, group []int64, inputs [][]float64, n int) ([]float64, []bool) {
	preds := make([]float64, n)
	ok := make([]bool, n)
	in := make([]float64, len(m.Model.Inputs))
	ev := m.Model.Evaluator()
	defer ev.Release()
	for r := 0; r < n; r++ {
		var key int64
		if group != nil {
			key = group[r]
		}
		g, has := m.GroupFor(key)
		if !has {
			continue
		}
		for i := range inputs {
			in[i] = inputs[i][r]
		}
		preds[r] = ev.Eval(g.Params, in)
		ok[r] = true
	}
	return preds, ok
}

// --- residual encodings ---
//
// Lossless residuals go through storage.EncodeXORFloats/DecodeXORFloats —
// the same XOR-chaining codec the column encoder uses for EncXOR frames —
// so the engine has exactly one XOR float implementation. Payloads are
// runtime-only (rebuilt at compression time, never persisted), so sharing
// the storage wire format carries no compatibility burden.

func encodeQuantized(vals []float64, eps float64) []byte {
	buf := make([]byte, 0, len(vals))
	tmp := make([]byte, binary.MaxVarintLen64)
	for _, v := range vals {
		q := int64(math.Round(v / eps))
		n := binary.PutVarint(tmp, q)
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

func decodeQuantized(b []byte, eps float64) ([]float64, error) {
	var out []float64
	off := 0
	for off < len(b) {
		q, n := binary.Varint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: truncated quantized payload")
		}
		off += n
		out = append(out, float64(q)*eps)
	}
	return out, nil
}

// FlateSize compresses raw bytes with DEFLATE at the default level and
// returns the compressed size — the generic-compressor baseline the paper
// contrasts semantic compression against (SPARTAN "is only barely able to
// outperform standard gzip").
func FlateSize(raw []byte) (int, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(raw); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// FlateRoundTrip compresses and decompresses, verifying integrity; it
// returns the compressed size.
func FlateRoundTrip(raw []byte) (int, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(raw); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	r := flate.NewReader(bytes.NewReader(buf.Bytes()))
	back, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(back, raw) {
		return 0, fmt.Errorf("compress: flate round trip mismatch")
	}
	return buf.Len(), nil
}

// Float64Bytes renders a float column as its raw byte image, the input for
// generic-compressor baselines.
func Float64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}
