package main

// The metric catalogue. BENCHMARK.json at the repository root carries the
// same names (a test holds the two together); the units live here.

var workloadNames = []string{"train_mlp", "train_cnn", "serve_dense", "serve_topk", "keys_quorum"}

// endToEndUnits are the metrics of the untraced run (--trace 0).
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"samples_per_s":  "1/s",
	"comm_kb_per_op": "kB",
	"rss_mb":         "MB",
}

// perLayerUnits are the metrics of the traced run (--trace 1). A metric of
// a layer that is not on a workload's path reads 0 there.
var perLayerUnits = map[string]string{
	"group.mulmont_ns":            "ns",
	"group.expmont_us":            "us",
	"group.multiexp_us":           "us",
	"group.multiexp_sparse_us":    "us",
	"group.batchinv_ns_per_elem":  "ns",
	"group.powg_us":               "us",
	"group.comb_pow_us":           "us",
	"group.table_build_ms":        "ms",
	"feip.setup_ms":               "ms",
	"feip.encrypt_us":             "us",
	"feip.encrypt_sparse_us":      "us",
	"feip.keyderive_us":           "us",
	"feip.decrypt_us":             "us",
	"febo.encrypt_us":             "us",
	"febo.keyderive_us":           "us",
	"febo.decrypt_us":             "us",
	"dlog.solver_build_ms":        "ms",
	"dlog.table_entries":          "count",
	"dlog.lookup_fwd_us":          "us",
	"dlog.lookup_grad_us":         "us",
	"dlog.topk_us":                "us",
	"dlog.topk_solved_per_sample": "count",
	"dlog.topk_rounds_per_sample": "count",

	"securemat.encrypt_ms":             "ms",
	"securemat.encrypt_sparse_ms":      "ms",
	"securemat.dot_keys_ms":            "ms",
	"securemat.secure_dot_ms":          "ms",
	"securemat.elementwise_keys_ms":    "ms",
	"securemat.secure_elementwise_ms":  "ms",
	"securemat.grad_keys_ms":           "ms",
	"securemat.secure_dot_rows_ms":     "ms",
	"securemat.sparse_dot_keys_ms":     "ms",
	"securemat.dot_topk_ms":            "ms",
	"securemat.cells_per_op":           "count",
	"securemat.dotkey_cache_hit_ratio": "ratio",

	"core.step_span_coverage": "ratio",
	"core.allocs_per_op":      "count",
	"core.kb_alloc_per_op":    "kB",
	"core.secure_over_plain":  "ratio",
	"core.encrypt_batch_ms":   "ms",

	"nn.plain_step_us":               "us",
	"nn.forward_backward_ms":         "ms",
	"tensor.matmul_us":               "us",
	"fixedpoint.encode_us_per_kcell": "us",

	"authority.ip_keys_per_op":             "count",
	"authority.bo_keys_per_op":             "count",
	"authority.ip_scalars_per_op":          "count",
	"authority.ipkey_us_per_key":           "us",
	"authority.bokey_us_per_key":           "us",
	"authority.node_partial_ip_us_per_key": "us",
	"authority.node_partial_bo_us_per_key": "us",

	"thresh.dkg_ms":               "ms",
	"thresh.prove_eq_us_per_key":  "us",
	"thresh.verify_eq_us_per_key": "us",
	"thresh.lambda_us":            "us",
	"thresh.combine_us_per_key":   "us",

	"wire.key_roundtrips_per_op": "count",
	"wire.key_rtt_us":            "us",
	"wire.key_kb_per_op":         "kB",
	"wire.predict_kb_per_sample": "kB",
	"wire.submit_ms_per_batch":   "ms",
	"wire.submit_kb_per_sample":  "kB",
	"wire.overhead_ms":           "ms",
	"wire.coalesced_width":       "count",
	"wire.queue_depth_max":       "count",
	"wire.busy_rejections":       "count",
	"wire.roundtrip_ms_p99":      "ms",
	"wire.quorum_hedges":         "count",
	"wire.quorum_escalations":    "count",

	"service.predict_ms_per_eval":        "ms",
	"service.predict_ms_per_sample":      "ms",
	"service.predict_topk_ms_per_sample": "ms",

	"trace_overhead_share": "ratio",

	// End-to-end readings the issue bounded and this box cannot: reported
	// from the traced run's untraced third, without a bound.
	"latency_ms_p50":               "ms",
	"latency_ms_p75":               "ms",
	"latency_ms_p90":               "ms",
	"client_encrypt_ms_per_sample": "ms",
}
