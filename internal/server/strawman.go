package server

// The paper's Figure 2 strawman over the session protocol: a *Client is the
// remote capture.Backend. The fit travels as a FIT MODEL statement, so it is
// logged, gated and drained like any SQL; the shape and point questions
// have an opcode each.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"datalaws"
	"datalaws/internal/capture"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/wireerr"
)

var _ capture.Backend = (*Client)(nil)

// maxPointInputs bounds an OpApproxPoint input vector; real models have a
// handful of input columns.
const maxPointInputs = 1 << 12

func (sess *session) handleTableInfo(req *Request) *Response {
	start := time.Now()
	cols, n, err := sess.srv.eng.TableInfo(req.SQL)
	sess.srv.metrics.RecordQuery(RouteOther, time.Since(start), err)
	if err != nil {
		return errResponse(err)
	}
	return &Response{Columns: cols, Rows: [][]expr.Value{{expr.Int(int64(n))}}, Done: true}
}

func (sess *session) handleApproxPoint(req *Request) *Response {
	n := len(req.Args) - 2
	if n < 0 || n > maxPointInputs || req.Args[0].K != expr.KindInt {
		return errResponse(fmt.Errorf("server: %w: a point takes an INT group, a level and at most %d inputs (got %d arguments)",
			wireerr.ErrBadRequest, maxPointInputs, len(req.Args)))
	}
	inputs := make([]float64, n)
	level, err := req.Args[1].AsFloat()
	for i := 0; err == nil && i < n; i++ {
		inputs[i], err = req.Args[i+2].AsFloat()
	}
	if err != nil {
		return errResponse(fmt.Errorf("server: %w: %v", wireerr.ErrBadRequest, err))
	}
	start := time.Now()
	ans, err := sess.srv.eng.ApproxPoint(req.SQL, req.Args[0].I, inputs, level)
	sess.srv.metrics.RecordQuery(RouteApprox, time.Since(start), err)
	if err != nil {
		return errResponse(err)
	}
	sess.srv.metrics.RecordRows(1)
	return &Response{Rows: [][]expr.Value{{expr.Float(ans.Value), expr.Float(ans.Lo), expr.Float(ans.Hi)}},
		Report: datalaws.Report{Model: ans.ModelName, ModelVersion: ans.ModelVersion}, Done: true}
}

// oneRow checks a strawman reply's shape before it is decoded.
func oneRow(resp *Response, op Op, width int) ([]expr.Value, error) {
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != width {
		return nil, fmt.Errorf("server: malformed %s reply", op)
	}
	return resp.Rows[0], nil
}

// TableInfo implements capture.Backend.
func (c *Client) TableInfo(name string) ([]string, int, error) {
	resp, err := c.call(&Request{Op: OpTableInfo, SQL: name})
	if err != nil {
		return nil, 0, err
	}
	row, err := oneRow(resp, OpTableInfo, 1)
	if err != nil {
		return nil, 0, err
	}
	return resp.Columns, int(row[0].I), nil
}

// fitSQL renders spec as the FIT MODEL statement the server runs for it.
// The predicate is pasted as its source form, which re-parses as SQL (see
// expr.Lit.String). START takes finite numbers only, so anything else is a
// bad request refused before the round trip.
func fitSQL(spec modelstore.Spec) (string, error) {
	src := fmt.Sprintf("FIT MODEL %s ON %s AS %s", spec.Name, spec.Table, &expr.Lit{Val: expr.Str(spec.Formula)})
	if len(spec.Inputs) > 0 {
		src += " INPUTS (" + strings.Join(spec.Inputs, ", ") + ")"
	}
	if spec.GroupBy != "" {
		src += " GROUP BY " + spec.GroupBy
	}
	if spec.Where != nil {
		src += " WHERE " + spec.Where.String()
	}
	var start []string
	for _, p := range slices.Sorted(maps.Keys(spec.Start)) {
		v := spec.Start[p]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("server: %w: START %s = %v is not a finite number", wireerr.ErrBadRequest, p, v)
		}
		start = append(start, p+" = "+strconv.FormatFloat(v, 'g', -1, 64))
	}
	if len(start) > 0 {
		src += " START (" + strings.Join(start, ", ") + ")"
	}
	if spec.Method != "" {
		src += " METHOD " + spec.Method
	}
	return src, nil
}

// FitModel implements capture.Backend: the spec runs as a FIT MODEL
// statement, whose one result row is the fit summary.
func (c *Client) FitModel(spec modelstore.Spec) (capture.FitSummary, error) {
	src, err := fitSQL(spec)
	if err != nil {
		return capture.FitSummary{}, err
	}
	resp, err := c.call(&Request{Op: OpQuery, SQL: src})
	if err != nil {
		return capture.FitSummary{}, err
	}
	row, err := oneRow(resp, OpQuery, len(capture.SummaryColumns()))
	if err != nil {
		return capture.FitSummary{}, err
	}
	return capture.SummaryFromRow(row)
}

// ApproxPoint implements capture.Backend.
func (c *Client) ApproxPoint(model string, group int64, inputs []float64, level float64) (capture.PointAnswer, error) {
	args := []expr.Value{expr.Int(group), expr.Float(level)}
	for _, x := range inputs {
		args = append(args, expr.Float(x))
	}
	resp, err := c.call(&Request{Op: OpApproxPoint, SQL: model, Args: args})
	if err != nil {
		return capture.PointAnswer{}, err
	}
	row, err := oneRow(resp, OpApproxPoint, 3)
	if err != nil {
		return capture.PointAnswer{}, err
	}
	return capture.PointAnswer{Value: row[0].F, Lo: row[1].F, Hi: row[2].F,
		FromModel: true, ModelName: resp.Model, ModelVersion: resp.ModelVersion}, nil
}
