package server

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/sql"
	"datalaws/internal/wireerr"
)

// TestFitSQLRoundTrip: a spec rendered as FIT MODEL comes back unchanged
// through sql.Parse. The WHERE case is the one that pasting a Go-quoted
// string literal ("O'Brien\\x") gets wrong: the SQL lexer reads only
// '...' with doubled quotes.
func TestFitSQLRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec modelstore.Spec
	}{
		{"where with quote and backslash", modelstore.Spec{
			Name: "spectra", Table: "measurements", Formula: "intensity ~ p * pow(nu, alpha)",
			Inputs: []string{"nu"}, GroupBy: "source",
			Where: expr.MustParse(`label = 'O''Brien\x' AND nu > -0.5 AND NOT (flag IS NULL) OR pow(nu, 2) % 3 <> 1`),
			Start: map[string]float64{"p": 1, "alpha": -1},
		}},
		{"negative and exponent start", modelstore.Spec{
			Name: "m", Table: "t", Formula: "y ~ p * exp(alpha * x)", Inputs: []string{"x"},
			Start: map[string]float64{"alpha": -1e-05, "p": 2.5e+30, "q": 0},
		}},
		{"formula with a quote", modelstore.Spec{
			Name: "m", Table: "t", Formula: "y ~ a * x + b  -- Hubble's law", Inputs: []string{"x"},
			GroupBy: "g", Start: map[string]float64{"a": 1, "b": 0},
		}},
		{"method lm", modelstore.Spec{
			Name: "m", Table: "t", Formula: "y ~ a + b * x", Inputs: []string{"x", "z"}, Method: "lm",
			Start: map[string]float64{},
		}},
		{"no group", modelstore.Spec{Name: "c", Table: "t", Formula: "y ~ c", Start: map[string]float64{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := fitSQL(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sql.Parse(src)
			if err != nil {
				t.Fatalf("sql.Parse(%s): %v", src, err)
			}
			fm := st.(*sql.FitModelStmt)
			got := modelstore.Spec{Name: fm.Name, Table: fm.Table, Formula: fm.Formula, Inputs: fm.Inputs,
				GroupBy: fm.GroupBy, Start: fm.Start, Method: fm.Method}
			want := tc.spec
			want.Where = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v came back as %+v (from %s)", want, got, src)
			}
			if (fm.Where == nil) != (tc.spec.Where == nil) || fm.Where != nil && fm.Where.String() != tc.spec.Where.String() {
				t.Fatalf("WHERE %v came back as %v (from %s)", tc.spec.Where, fm.Where, src)
			}
		})
	}
}

// TestFitSQLRefusesNonFiniteStart: START takes numbers only, so NaN and
// infinities are bad requests on the client.
func TestFitSQLRefusesNonFiniteStart(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := modelstore.Spec{Name: "m", Table: "t", Formula: "y ~ a * x", Inputs: []string{"x"},
			Start: map[string]float64{"a": v}}
		if src, err := fitSQL(spec); !errors.Is(err, wireerr.ErrBadRequest) {
			t.Fatalf("START a = %v rendered %q, %v; want ErrBadRequest", v, src, err)
		}
	}
}
