// Command cryptonn-server is the training server of Fig. 1: it collects
// encrypted batches from distributed clients over TCP, trains a neural
// network on them through the CryptoNN framework (requesting
// function-derived keys from the authority), and can then serve FE-based
// predictions over encrypted inputs (§III-D).
//
// Usage:
//
//	cryptonn-server -listen :7002 -authority 127.0.0.1:7001 \
//	    -features 784 -classes 10 -hidden 32 -epochs 2 -lr 0.3 \
//	    -expect 2
//
// Pass a comma-separated node list to -authority to request keys from a
// threshold authority cluster instead of a single authority.
//
// The server waits for -expect client submissions, trains, prints
// per-epoch progress, and exits — unless -predict-listen is given, in
// which case it then serves prediction requests on that address until
// interrupted. The trained parameters stay on the server (they are
// plaintext by the paper's design).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"cryptonn/internal/nn"
	"cryptonn/internal/service"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptonn-server:", err)
		os.Exit(1)
	}
}

// parseBuckets parses the -sparse-buckets comma list.
func parseBuckets(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -sparse-buckets entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7002", "listen address for client submissions")
	authorityAddr := fs.String("authority", "127.0.0.1:7001", "authority address, or comma-separated cluster node list")
	features := fs.Int("features", 784, "input feature count")
	classes := fs.Int("classes", 10, "output classes")
	hidden := fs.Int("hidden", 32, "hidden units in the first (secure) layer (0: bias-free linear model, enables top-k serving)")
	epochs := fs.Int("epochs", 2, "training epochs")
	lr := fs.Float64("lr", 0.3, "SGD learning rate")
	expect := fs.Int("expect", 1, "number of client submissions to wait for")
	seed := fs.Int64("seed", 1, "weight initialisation seed")
	predictListen := fs.String("predict-listen", "", "after training, serve predictions on this address (empty: exit)")
	sparseBuckets := fs.String("sparse-buckets", "", "comma-separated support-padding size classes for coordinate-form key requests (empty: no padding)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics on this address (empty: disabled)")
	savePath := fs.String("save", "", "write the trained model checkpoint to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// service.Config reads 0 as "default", so a 0 here must not reach it.
	if *epochs < 1 || *expect < 1 || !(*lr > 0) {
		return fmt.Errorf("-epochs, -expect and -lr must be positive, got %d, %d and %v", *epochs, *expect, *lr)
	}

	logger := log.New(os.Stderr, "server: ", log.LstdFlags)
	keys, err := wire.DialKeys(*authorityAddr, logger)
	if err != nil {
		return err
	}
	defer func() {
		if err := keys.Close(); err != nil {
			logger.Printf("closing key service: %v", err)
		}
	}()

	buckets, err := parseBuckets(*sparseBuckets)
	if err != nil {
		return err
	}
	cfg := service.Config{
		Features:      *features,
		Classes:       *classes,
		Epochs:        *epochs,
		LR:            *lr,
		Expect:        *expect,
		Seed:          *seed,
		ComputeLoss:   true,
		SparseBuckets: buckets,
		Logger:        logger,
	}
	if *hidden == 0 {
		cfg.Linear = true
		logger.Printf("linear model: bias-free %dx%d scorer, top-k serving enabled", *classes, *features)
	} else {
		cfg.Hidden = []int{*hidden}
	}
	srv, err := service.New(keys, cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *metricsAddr != "" {
		// The prediction source resolves lazily, so mounting before
		// training is fine — counters read zero until serving starts.
		// The engine contributes sparsity/top-k counters, and a quorum
		// key service contributes its fan-out health counters.
		sources := []wire.MetricsSource{srv.PredictionMetrics(), srv.EngineMetrics()}
		if q, ok := keys.(wire.MetricsSource); ok {
			sources = append(sources, q)
		}
		ms, err := wire.ServeMetrics(*metricsAddr, logger, sources...)
		if err != nil {
			return err
		}
		defer ms.Close() //nolint:errcheck // shutdown is best-effort
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Printf("training: listening on %s", l.Addr())
	report, err := srv.Run(ctx, l)
	if err != nil {
		return err
	}
	logger.Printf("trained on %d batches from %d client(s): collect %s, train %s",
		report.Batches, report.Clients,
		report.CollectTime.Round(time.Millisecond), report.TrainTime.Round(time.Millisecond))
	for e, loss := range report.EpochLoss {
		logger.Printf("epoch %d: avg secure loss %.4f", e+1, loss)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := nn.Save(f, srv.Model()); err != nil {
			_ = f.Close()
			return fmt.Errorf("saving model: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Printf("model checkpoint written to %s", *savePath)
	}

	if *predictListen == "" {
		return nil
	}
	pl, err := net.Listen("tcp", *predictListen)
	if err != nil {
		return err
	}
	logger.Printf("predictions: listening on %s", pl.Addr())
	return srv.ServePredictions(ctx, pl)
}
