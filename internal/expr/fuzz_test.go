package expr

import "testing"

// FuzzExprParse throws arbitrary formula text at Parse, the reader of a
// captured law's formula and WHERE in models.json, WAL records and the
// model feed. The invariants: never panic; a successful parse renders to
// text that parses back to the same rendering; and a `?` placeholder is
// refused, since only a statement takes parameters.
func FuzzExprParse(f *testing.F) {
	for _, s := range []string{
		"p * pow(nu, alpha)", "intensity ~ p * nu ^ alpha", "a + b * x",
		"-2 ^ 2 ^ -x", "x BETWEEN -2 AND 6 OR NOT (y IS NOT NULL)",
		"label = 'it''s' AND flag = TRUE", "t.x <> NULL", "count(*) % 3",
		"1.5e2 + .5 - 9223372036854775808", "like >= 0", "a--b", "x = ?",
		`x == "s"`, "a.b.c", "(((", "'open", "\x00\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		if MaxParam(e) > 0 {
			t.Fatalf("Parse(%q) accepted a placeholder: %s", src, e)
		}
		r, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse back: %v", src, e, err)
		}
		if r.String() != e.String() {
			t.Fatalf("Parse(%q) = %s, which parses back as %s", src, e, r)
		}
		if p, err := Parse(e.String() + " + ?"); err == nil {
			t.Fatalf("Parse(%q) accepted a placeholder: %s", e.String()+" + ?", p)
		}
	})
}
