// ICD: encrypted extreme multi-label classification over sparse records.
//
// The scenario behind the sparse engine: a hospital wants a cloud service
// to assign ICD diagnosis codes to discharge summaries without revealing
// the text. Each record is a bag-of-words vector — vocabulary size η in
// the thousands, well under 5% of coordinates non-zero — and the code set
// is huge, but only the top-k scoring codes per record matter.
//
// The sparse pipeline exploits both ends of that shape:
//
//   - the client encrypts only each record's support (EncryptSparse),
//     paying ~nnz exponentiations instead of η;
//   - the authority issues support-masked keys whose requests carry nnz
//     scalars instead of η (the support is revealed to the authority and
//     server — see docs/SPARSE.md for the leakage discussion);
//   - the server resolves only the k winning logits' discrete logs per
//     record (SecureDotTopK) instead of one per label.
//
// Run with:
//
//	go run ./examples/icd
//	go run ./examples/icd -eta 10000 -labels 5000 -density 0.01 -topk 10
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"cryptonn/internal/experiments"
	"cryptonn/internal/group"
)

func main() {
	eta := flag.Int("eta", 2000, "vocabulary size (input dimension η)")
	labels := flag.Int("labels", 200, "number of ICD codes (output labels)")
	batch := flag.Int("batch", 4, "records per encrypted batch")
	densities := flag.String("density", "0.005,0.01,0.05", "comma-separated input densities to sweep")
	topk := flag.Int("topk", 10, "codes decrypted per record")
	bits := flag.Int("bits", group.TestBits, "group modulus bits (paper setting: 256)")
	skipDense := flag.Bool("skip-dense", false, "skip the dense-path reference measurements")
	par := flag.Int("par", 0, "workers (0 = every core)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	var ds []float64
	for _, s := range strings.Split(*densities, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			log.Fatalf("icd: bad density %q: %v", s, err)
		}
		ds = append(ds, d)
	}

	points, err := experiments.ICD(experiments.ICDConfig{
		Bits:        *bits,
		Eta:         *eta,
		Labels:      *labels,
		Batch:       *batch,
		Densities:   ds,
		TopK:        *topk,
		Parallelism: *par,
		SkipDense:   *skipDense,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("encrypted ICD coding: η=%d, %d labels, batch=%d, top-%d, %d-bit group\n",
		*eta, *labels, *batch, *topk, *bits)
	fmt.Printf("%-9s %7s %13s %13s %9s %12s %13s %13s %8s\n",
		"density", "nnz", "enc-sparse", "enc-dense", "enc-gain",
		"keyderive", "topk", "full-solve", "dlogs")
	for _, p := range points {
		encDense, encGain, full := "-", "-", "-"
		if p.EncryptDense > 0 {
			encDense = p.EncryptDense.Round(10e3).String()
			encGain = fmt.Sprintf("%.1fx", float64(p.EncryptDense)/float64(p.EncryptSparse))
		}
		if p.FullCompute > 0 {
			full = p.FullCompute.Round(10e3).String()
		}
		fmt.Printf("%-9g %7d %13s %13s %9s %12s %13s %13s %8s\n",
			p.Density, p.Nnz, p.EncryptSparse.Round(10e3), encDense, encGain,
			p.KeyDerive.Round(10e3), p.TopKCompute.Round(10e3), full,
			fmt.Sprintf("%d/%d", p.TopKSolved, p.TopKSolved+p.TopKSkipped))
	}
	fmt.Println("\ndlogs column: discrete logs solved / total output cells — the top-k head")
	fmt.Println("pays k solves per record; every skipped cell is a dlog never computed.")
}
