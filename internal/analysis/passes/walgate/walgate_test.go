package walgate_test

import (
	"testing"

	"datalaws/internal/analysis/checktest"
	"datalaws/internal/analysis/passes/walgate"
)

// TestEngine covers strict mode: the engine package itself, including the
// mutate-closure and apply*/loadSnapshot acceptance paths.
func TestEngine(t *testing.T) {
	checktest.Run(t, "testdata", walgate.Analyzer, "datalaws")
}

// TestRefit covers the other strict package, internal/refit.
func TestRefit(t *testing.T) {
	checktest.Run(t, "testdata", walgate.Analyzer, "datalaws/internal/refit")
}

// TestClient covers engine-rooted detection outside the strict packages.
func TestClient(t *testing.T) {
	checktest.Run(t, "testdata", walgate.Analyzer, "srv")
}
