package wire

import (
	"context"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsHandlerScrape(t *testing.T) {
	addr, srv := startPredictServer(t, echoPredict, DispatcherOptions{})
	cc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	rng := rand.New(rand.NewSource(11))
	if _, err := cc.Predict(context.Background(), synthBatch(rng, 3, 2, 2, false), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Nil sources must be skipped, not panic.
	h := MetricsHandler(srv, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE cryptonn_predict_requests_total counter",
		"cryptonn_predict_requests_total 1",
		"cryptonn_predict_samples_total 2",
		"cryptonn_predict_connections_total 1",
		"cryptonn_predict_handshake_rejected_total 0",
		"cryptonn_predict_latency_seconds{quantile=\"0.99\"}",
		"cryptonn_predict_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\n%s", want, body)
		}
	}
	// Prometheus text format: every non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestAuthorityServerMetrics(t *testing.T) {
	s := &AuthorityServer{}
	s.served.Add(3)
	s.rejected.Add(1)
	var b strings.Builder
	s.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"cryptonn_authority_served_total 3",
		"cryptonn_authority_rejected_total 1",
		"cryptonn_authority_panics_total 0",
		"cryptonn_authority_handshake_rejected_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestQuorumMetricsNames(t *testing.T) {
	s := &QuorumKeyService{}
	s.escalations.Add(2)
	s.hedges.Add(1)
	s.badPartials.Add(3)
	var b strings.Builder
	s.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"cryptonn_quorum_round_trips_total 0",
		"cryptonn_quorum_escalations_total 2",
		"cryptonn_quorum_hedges_total 1",
		"cryptonn_quorum_suspicions_total 0",
		"cryptonn_quorum_suspect_nodes 0",
		"cryptonn_quorum_bad_partials_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

type constSource string

func (c constSource) WriteMetrics(w io.Writer) { io.WriteString(w, string(c)) } //nolint:errcheck

func TestServeMetrics(t *testing.T) {
	var logged strings.Builder
	ms, err := ServeMetrics("127.0.0.1:0", log.New(&logged, "", 0), constSource("up 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	addr, ok := strings.CutPrefix(strings.TrimSpace(logged.String()), "serving /metrics on ")
	if !ok {
		t.Fatalf("no bound address logged: %q", logged.String())
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err := io.ReadAll(resp.Body); err != nil || string(body) != "up 1\n" {
		t.Errorf("scrape = %q, %v; want the source's samples", body, err)
	}
	if _, err := ServeMetrics(addr, log.New(io.Discard, "", 0)); err == nil {
		t.Error("second listener on a bound address succeeded")
	}
}
