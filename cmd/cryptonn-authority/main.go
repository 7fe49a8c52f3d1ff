// Command cryptonn-authority runs the trusted key authority of the
// CryptoNN architecture (Fig. 1) as a TCP service: it generates and holds
// the master secret keys, distributes public keys, and issues
// function-derived keys for the permitted function set.
//
// Usage:
//
//	cryptonn-authority -listen :7001 -bits 256
//
// The permitted set defaults to everything CryptoNN training needs
// (dot-product and the four basic operations); -deny-div etc. narrow it.
//
// # Threshold cluster mode
//
// Instead of one process holding whole master secrets, the authority can
// run as an N-of-T cluster: a one-off setup ceremony shards the secrets
// into per-node share files, and each node process then serves partial
// keys that only a T-quorum of nodes can combine (see wire.QuorumKeyService
// on the client side). No process ever holds a whole master secret after
// the ceremony.
//
//	cryptonn-authority -setup-nodes 5 -setup-threshold 3 \
//	    -setup-etas 784,16 -setup-out ./cluster    # ceremony, writes node-*.share
//	cryptonn-authority -share ./cluster/node-1.share -listen :7001
//	cryptonn-authority -share ./cluster/node-2.share -listen :7002
//	...
//
// -setup-etas above lists the FEIP dimensions of the default server and
// client: 784 features (the forward W·X of training and prediction) and a
// batch of 16 (the gradient dZ·Xᵀ); hidden widths and classes never are.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"cryptonn/internal/authority"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "cryptonn-authority:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptonn-authority", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7001", "listen address")
	bits := fs.Int("bits", group.PaperBits, "group modulus bits (embedded sizes: 64,128,192,256,512)")
	generate := fs.Bool("generate", false, "generate a fresh group instead of the embedded one")
	denyDot := fs.Bool("deny-dot", false, "refuse dot-product keys")
	denyDiv := fs.Bool("deny-div", false, "refuse division keys")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics on this address (empty: disabled)")
	share := fs.String("share", "", "cluster-node mode: serve partial keys from this share file")
	setupNodes := fs.Int("setup-nodes", 0, "setup ceremony: shard the master secrets across N nodes")
	setupThreshold := fs.Int("setup-threshold", 0, "setup ceremony: quorum size T (partial keys from any T nodes combine)")
	setupEtas := fs.String("setup-etas", "", "setup ceremony: comma-separated FEIP dimensions to provision (e.g. layer widths)")
	setupOut := fs.String("setup-out", ".", "setup ceremony: directory for node-<i>.share files")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *setupNodes > 0 {
		return runSetup(*bits, *generate, *setupNodes, *setupThreshold, *setupEtas, *setupOut)
	}
	logger := log.New(os.Stderr, "authority: ", log.LstdFlags)

	policy := authority.AllowAll()
	policy.DotProduct = !*denyDot
	if *denyDiv {
		policy.BasicOps[febo.OpDiv] = false
	}

	var srv *wire.AuthorityServer
	var stats func() string
	if *share != "" {
		f, err := os.Open(*share)
		if err != nil {
			return err
		}
		sf, err := authority.ReadNodeShareFile(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		node, err := authority.LoadNode(sf, policy)
		if err != nil {
			return err
		}
		srv, err = wire.NewNodeServer(node, logger, wire.AuthorityServerOptions{})
		if err != nil {
			return err
		}
		logger.Printf("cluster node %d of %d (quorum T=%d), %s", node.Index(), node.ClusterSize(), node.Threshold(), node.Params())
		stats = func() string { return fmt.Sprintf("%+v", node.Stats()) }
	} else {
		params, err := loadGroup(*bits, *generate)
		if err != nil {
			return err
		}
		auth, err := authority.New(params, policy)
		if err != nil {
			return err
		}
		srv, err = wire.NewAuthorityServer(auth, logger)
		if err != nil {
			return err
		}
		logger.Printf("serving %s keys", params)
		stats = func() string { return fmt.Sprintf("%+v", auth.Stats()) }
	}

	if *metricsAddr != "" {
		ms, err := wire.ServeMetrics(*metricsAddr, logger, srv)
		if err != nil {
			return err
		}
		defer ms.Close() //nolint:errcheck // shutdown is best-effort
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Printf("shutting down: issued %s, incidents %+v", stats(), srv.Stats())
	}()
	return srv.Serve(ctx, l)
}

func loadGroup(bits int, generate bool) (*group.Params, error) {
	if generate {
		log.Printf("generating %d-bit safe-prime group (this can take a while)...", bits)
		return group.Generate(bits, nil)
	}
	return group.Embedded(bits)
}

// runSetup is the dealer ceremony: it runs the distributed key generation
// in one short-lived process and writes one share file per node. The
// in-memory cluster state (and with it any path to the whole secrets) is
// gone when the process exits; afterwards only T-subsets of the share
// files can derive keys.
func runSetup(bits int, generate bool, n, t int, etasCSV, outDir string) error {
	if t <= 0 {
		return errors.New("setup: -setup-threshold must be at least 1")
	}
	var etas []int
	if etasCSV != "" {
		for _, s := range strings.Split(etasCSV, ",") {
			eta, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || eta <= 0 {
				return fmt.Errorf("setup: invalid FEIP dimension %q", s)
			}
			etas = append(etas, eta)
		}
	}
	params, err := loadGroup(bits, generate)
	if err != nil {
		return err
	}
	cluster, _, err := authority.NewCluster(params, authority.AllowAll(), t, n, nil)
	if err != nil {
		return err
	}
	for j := 1; j <= n; j++ {
		f, err := cluster.ShareFile(j, etas)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("node-%d.share", j))
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		if err := f.Encode(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		log.Printf("setup: wrote %s", path)
	}
	log.Printf("setup: %d-of-%d cluster over %s, %d FEIP dimension(s) provisioned", t, n, params, len(etas))
	return nil
}
