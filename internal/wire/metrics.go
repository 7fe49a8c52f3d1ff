package wire

// Prometheus text-format exposition (version 0.0.4) for the serving
// stack, written by hand so the repo stays dependency-free. Each server
// type exposes WriteMetrics; MetricsHandler aggregates any number of
// them behind one /metrics endpoint. Counter names are part of the
// operational interface — the CI loadgen smoke job greps for them, and
// README.md documents each one — so renaming a metric is a breaking
// change on par with a wire-format bump.

import (
	"fmt"
	"io"
	"net/http"
	"sync"
)

// MetricsSource is anything that can contribute to a /metrics scrape.
type MetricsSource interface {
	// WriteMetrics appends Prometheus text-format samples. Implementations
	// must emit complete metric families (HELP/TYPE then samples) and
	// must not assume exclusive ownership of the writer.
	WriteMetrics(w io.Writer)
}

// MetricsHandler serves a Prometheus text-format scrape aggregating the
// given sources, in order. Nil sources are skipped, so callers can pass
// optional components unconditionally.
func MetricsHandler(sources ...MetricsSource) http.Handler {
	// Scrapes are cheap (atomic loads) but serialized anyway so two
	// concurrent scrapes cannot interleave partially buffered output.
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, s := range sources {
			if s != nil {
				s.WriteMetrics(w)
			}
		}
	})
}

// scalarFamily writes a family with one unlabelled sample.
func scalarFamily[V int | uint64](w io.Writer, name, typ, help string, v V) {
	metricFamily(w, name, typ, help, fmt.Sprintf(" %d", v))
}

// metricFamily writes one HELP/TYPE preamble followed by its samples.
func metricFamily(w io.Writer, name, typ, help string, samples ...string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s\n", name, s)
	}
}

// WriteMetrics exposes the prediction server's dispatcher and connection
// counters (see DispatcherStats).
func (s *PredictionServer) WriteMetrics(w io.Writer) {
	st := s.Stats()
	scalarFamily(w, "cryptonn_predict_requests_total", "counter", "Prediction requests accepted into the dispatch queue.", st.Requests)
	scalarFamily(w, "cryptonn_predict_rejected_total", "counter", "Prediction requests rejected with retryable backpressure (queue full).", st.Rejected)
	scalarFamily(w, "cryptonn_predict_samples_total", "counter", "Encrypted samples evaluated.", st.Samples)
	scalarFamily(w, "cryptonn_predict_topk_requests_total", "counter", "Coordinate-form top-k prediction requests accepted into the dispatch queue.", st.TopKRequests)
	scalarFamily(w, "cryptonn_predict_topk_samples_total", "counter", "Encrypted samples across accepted top-k prediction requests.", st.TopKSamples)
	scalarFamily(w, "cryptonn_predict_evals_total", "counter", "Engine evaluations (coalesced rounds).", st.Evals)
	scalarFamily(w, "cryptonn_predict_panics_total", "counter", "Recovered panics while decoding, queueing or evaluating predictions.", st.Panics)
	scalarFamily(w, "cryptonn_predict_queue_depth", "gauge", "Prediction requests currently queued.", st.QueueDepth)
	scalarFamily(w, "cryptonn_predict_max_coalesced", "gauge", "Widest coalesced round so far, in requests.", st.MaxCoalesced)
	// Quantile-labeled samples must be TYPE summary: Prometheus tooling
	// treats the reserved "quantile" label specially based on the type.
	// The _sum/_count series are omitted — the ring only keeps recent
	// samples, and partial sums would misreport rates.
	metricFamily(w, "cryptonn_predict_latency_seconds", "summary",
		"Recent per-request dispatch latency quantiles.",
		fmt.Sprintf("{quantile=\"0.5\"} %g", st.P50.Seconds()),
		fmt.Sprintf("{quantile=\"0.99\"} %g", st.P99.Seconds()))
	scalarFamily(w, "cryptonn_predict_connections_total", "counter", "Prediction connections that completed the version handshake.", s.accepted.Load())
	scalarFamily(w, "cryptonn_predict_handshake_rejected_total", "counter", "Connections closed because they did not open with a valid hello.", st.HandshakeRejected)
}

// WriteMetrics exposes the authority server's incident counters (see
// AuthorityServerStats).
func (s *AuthorityServer) WriteMetrics(w io.Writer) {
	st := s.Stats()
	scalarFamily(w, "cryptonn_authority_served_total", "counter", "Key requests dispatched to the key services.", st.Served)
	scalarFamily(w, "cryptonn_authority_rejected_total", "counter", "Key requests refused by the resource-limit guard.", st.Rejected)
	scalarFamily(w, "cryptonn_authority_panics_total", "counter", "Recovered panics while serving key requests.", st.Panics)
	scalarFamily(w, "cryptonn_authority_handshake_rejected_total", "counter", "Connections closed because they did not open with a valid hello.", st.HandshakeRejected)
}

// WriteMetrics exposes the quorum client's fan-out health counters (see
// QuorumStats).
func (s *QuorumKeyService) WriteMetrics(w io.Writer) {
	st := s.Stats()
	scalarFamily(w, "cryptonn_quorum_round_trips_total", "counter", "Cluster node exchanges, including retries and hedges.", st.RoundTrips)
	scalarFamily(w, "cryptonn_quorum_escalations_total", "counter", "Standby nodes contacted because a primary failed or misbehaved.", st.Escalations)
	scalarFamily(w, "cryptonn_quorum_hedges_total", "counter", "Standby nodes contacted because primaries stalled past the hedge delay.", st.Hedges)
	scalarFamily(w, "cryptonn_quorum_suspicions_total", "counter", "Node exchanges that exhausted retries and marked the node suspect.", st.Suspicions)
	scalarFamily(w, "cryptonn_quorum_suspect_nodes", "gauge", "Cluster nodes currently marked suspect.", st.SuspectNodes)
	scalarFamily(w, "cryptonn_quorum_bad_partials_total", "counter", "Partial-key answers that failed their node's own check and were dropped.", st.BadPartials)
}
