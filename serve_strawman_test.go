package datalaws_test

import (
	"testing"

	datalaws "datalaws"
	"datalaws/internal/capture"
	"datalaws/internal/server"
	"datalaws/internal/synth"
)

// TestEngineOverTCP runs a strawman session against the engine through the
// network server every other client uses.
func TestEngineOverTCP(t *testing.T) {
	d := synth.GenerateLOFAR(synth.LOFARConfig{Sources: 10, ObsPerSource: 40, NoiseFrac: 0.03, Seed: 61})
	tb, err := synth.LOFARTable("measurements", d)
	if err != nil {
		t.Fatal(err)
	}
	e := datalaws.NewEngine()
	if err := e.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	srv := server.New(e, &server.Config{Logf: t.Logf})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	s, err := capture.NewStrawman(cli, "measurements")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Fit("remote", "intensity ~ p * pow(nu, alpha)", []string{"nu"}, &capture.FitOptions{
		GroupBy: "source", Start: map[string]float64{"p": 1, "alpha": -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Groups != 10 {
		t.Fatalf("summary = %+v", sum)
	}
	ans, err := s.Point("remote", 1, []float64{0.16}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(ans.Lo < ans.Value && ans.Value < ans.Hi) {
		t.Fatalf("answer = %+v", ans)
	}
}
