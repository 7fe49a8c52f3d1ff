package main

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/experiments"
	"cryptonn/internal/group"
	"cryptonn/internal/wire"
)

func TestRunCommExperiment(t *testing.T) {
	if err := run([]string{"-exp", "comm"}); err != nil {
		t.Fatalf("run -exp comm: %v", err)
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	// A typo must not run nothing and exit 0: it is an error that names
	// every valid experiment.
	err := run([]string{"-exp", "does-not-exist"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range experimentNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRunTrainingExperiments(t *testing.T) {
	for _, exp := range []string{"fig6", "table3"} {
		if err := run([]string{"-exp", exp, "-pool", "4", "-hidden", "4"}); err != nil {
			t.Fatalf("run -exp %s: %v", exp, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsBadTrainingFlags checks that the fig6/table3 size and
// schedule flags reject values of the wrong type instead of falling back to
// their defaults.
func TestRunRejectsBadTrainingFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-samples", "many"},
		{"-exp", "table3", "-test", "1.5"},
		{"-exp", "table3", "-batch", "x"},
		{"-exp", "table3", "-epochs", "two"},
		{"-exp", "table3", "-lr", "fast"},
		{"-exp", "table3", "-tick", "-"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %v: bad value accepted", args)
		}
	}
}

func TestRunBadArchFails(t *testing.T) {
	if err := run([]string{"-exp", "fig6", "-arch", "transformer", "-pool", "4", "-hidden", "4"}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestRunRejectsUnknownArch checks the -arch rejection on the table3 path
// with the size flags set, so the error comes before any training.
func TestRunRejectsUnknownArch(t *testing.T) {
	if err := run([]string{"-exp", "table3", "-arch", "gpt", "-samples", "20", "-batch", "10"}); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestRunTinyTrainingComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("secure training run; skipped in -short")
	}
	err := run([]string{
		"-exp", "table3", "-samples", "20", "-test", "20", "-batch", "10", "-epochs", "1",
		"-pool", "4", "-hidden", "4", "-tick", "1",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestPaperPresetYieldsToExplicitFlags pins the preset rule: -paper fills
// in the publication parameters, and every flag given explicitly keeps its
// own value.
func TestPaperPresetYieldsToExplicitFlags(t *testing.T) {
	paper := experiments.TrainConfig{
		Bits: 256, Arch: experiments.ArchMLP, TrainSamples: 60000, TestSamples: 10000,
		BatchSize: 64, Epochs: 2, TickBatches: 50, Seed: 1, Pool: 1, Hidden: 32,
	}
	sized := paper
	sized.TrainSamples, sized.Pool = 600, 2
	batch8 := paper
	batch8.BatchSize = 8
	paperICD := experiments.ICDConfig{Bits: 256, Eta: 10000, Labels: 5000, TopK: 10, SkipDense: true, Seed: 1}
	batch8ICD := paperICD
	batch8ICD.Batch, batch8ICD.SkipDense = 8, false
	for _, tc := range []struct {
		name    string
		args    []string
		want    experiments.TrainConfig
		wantICD experiments.ICDConfig
	}{
		{"scaled", nil, experiments.TrainConfig{Arch: experiments.ArchMLP, Seed: 1},
			experiments.ICDConfig{TopK: 10, Seed: 1}},
		{"paper", []string{"-paper"}, paper, paperICD},
		{"paper sized", []string{"-paper", "-samples", "600", "-pool", "2"}, sized, paperICD},
		{"paper icd batch", []string{"-paper", "-exp", "icd", "-batch", "8", "-skip-dense=false"}, batch8, batch8ICD},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseOptions(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o.train, tc.want) {
				t.Errorf("training config\n got %+v\nwant %+v", o.train, tc.want)
			}
			if !reflect.DeepEqual(o.icd, tc.wantICD) {
				t.Errorf("icd config\n got %+v\nwant %+v", o.icd, tc.wantICD)
			}
		})
	}
}

func TestAuthorityNeedsATrainingExperiment(t *testing.T) {
	for _, exp := range []string{"comm", "icd", "fig3", "all"} {
		if _, err := parseOptions([]string{"-exp", exp, "-authority", "127.0.0.1:1"}); err == nil {
			t.Errorf("-authority accepted with -exp %s", exp)
		}
	}
	for _, exp := range []string{"fig6", "table3"} {
		if _, err := parseOptions([]string{"-exp", exp, "-authority", "127.0.0.1:1"}); err != nil {
			t.Errorf("-exp %s -authority: %v", exp, err)
		}
	}
}

// TestRunTrainsOverAThresholdCluster trains over a 128-bit cluster without
// -bits: the run takes its group from the cluster.
func TestRunTrainsOverAThresholdCluster(t *testing.T) {
	params, err := group.Embedded(128)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes, err := authority.NewCluster(params, authority.AllowAll(), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var addrs []string
	for _, nd := range nodes {
		srv, err := wire.NewNodeServer(nd, nil, wire.AuthorityServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ctx, l) //nolint:errcheck // returns net.ErrClosed on shutdown
		addrs = append(addrs, l.Addr().String())
	}
	err = run([]string{
		"-exp", "table3", "-authority", strings.Join(addrs, ","),
		"-samples", "20", "-test", "10", "-batch", "10", "-epochs", "1", "-pool", "4", "-hidden", "4",
	})
	if err != nil {
		t.Fatalf("run over a 2-of-3 cluster: %v", err)
	}
}
