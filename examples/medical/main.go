// Medical: the paper's motivating scenario (§I) as a running system.
//
// Several distributed federal clinics want to train a shared diagnostic
// model, but regulations forbid them from revealing patient records to
// the cloud service that does the training. CryptoNN's answer:
//
//   - a trusted *authority* sets up the functional-encryption keys,
//   - each *clinic* (client) encrypts its patient records locally and
//     submits only ciphertexts,
//   - the *server* trains the model over the encrypted records, learning
//     function outputs (W·X, P − Y) but never a single raw feature.
//
// This example runs all three entities as real TCP services on loopback:
// one authority, one training server, and three clinics with disjoint
// synthetic patient shards. Labels are additionally passed through a
// keyed random mapping (§III-A) so the server cannot even see which
// class is which.
//
// Run with:
//
//	go run ./examples/medical
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/service"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

const (
	numClinics  = 3
	patientsPer = 24 // patients per clinic
	features    = 10 // vitals + lab results per record
	classes     = 2  // healthy / at-risk
	batchSize   = 6
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	logger := log.New(os.Stderr, "", log.Ltime)

	// --- Authority: key setup and issuance (Fig. 1, left). ---
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		return err
	}
	authL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	authSrv, err := wire.NewAuthorityServer(auth, log.New(os.Stderr, "authority: ", log.Ltime))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	authDone := make(chan struct{})
	go func() { defer close(authDone); _ = authSrv.Serve(ctx, authL) }()
	defer func() { cancel(); <-authDone }()
	logger.Printf("authority listening on %s", authL.Addr())

	// --- Server: collects encrypted shards, then trains (Fig. 1, right). ---
	serverKeys, err := wire.DialKeyService(authL.Addr().String())
	if err != nil {
		return err
	}
	defer serverKeys.Close()
	trainSrv, err := service.New(serverKeys, service.Config{
		Features:    features,
		Classes:     classes,
		Hidden:      []int{8},
		Epochs:      12,
		LR:          1.0,
		Expect:      numClinics,
		ComputeLoss: true,
		Seed:        42,
		Logger:      log.New(os.Stderr, "server: ", log.Ltime),
	})
	if err != nil {
		return err
	}
	trainL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	type outcome struct {
		rep *service.Report
		err error
	}
	trained := make(chan outcome, 1)
	go func() {
		rep, err := trainSrv.Run(ctx, trainL)
		trained <- outcome{rep, err}
	}()
	logger.Printf("training server listening on %s", trainL.Addr())

	// --- Clinics: encrypt locally, submit ciphertexts. ---
	// All clinics share a label-mapping key (they coordinate among
	// themselves; the server and authority never see it).
	labelKey := []byte("shared-clinic-secret")
	labels, err := core.NewLabelMap(classes, labelKey)
	if err != nil {
		return err
	}
	for clinic := 0; clinic < numClinics; clinic++ {
		if err := submitClinic(clinic, authL.Addr().String(), trainL.Addr().String(), labels, logger); err != nil {
			return fmt.Errorf("clinic %d: %w", clinic, err)
		}
	}

	// --- Training completes on the server. ---
	res := <-trained
	if res.err != nil {
		return res.err
	}
	fmt.Println()
	fmt.Printf("trained on %d encrypted batches from %d clinics in %s\n",
		res.rep.Batches, res.rep.Clients, res.rep.TrainTime.Round(time.Millisecond))
	for e, l := range res.rep.EpochLoss {
		fmt.Printf("  epoch %d: secure cross-entropy loss %.4f\n", e+1, l)
	}

	// --- FE-based prediction (§III-D): a clinic submits an encrypted
	// record; the server returns the *masked* class, which only the
	// clinic (holding the label map) can translate. ---
	clientKeys, err := wire.DialKeyService(authL.Addr().String())
	if err != nil {
		return err
	}
	defer clientKeys.Close()
	clientEng, err := securemat.NewEngine(clientKeys, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	client, err := core.NewClient(clientEng, fixedpoint.Default(), labels)
	if err != nil {
		return err
	}
	x, _, truth := clinicRecords(99, 4)
	enc, err := client.EncryptPredictBatch(x, classes)
	if err != nil {
		return err
	}
	masked, err := trainSrv.Predict(enc)
	if err != nil {
		return err
	}
	preds, err := labels.InvertAll(masked)
	if err != nil {
		return err
	}
	fmt.Println("\nencrypted prediction for 4 unseen patients:")
	correct := 0
	for i := range preds {
		name := "healthy"
		if preds[i] == 1 {
			name = "at-risk"
		}
		mark := "✗"
		if preds[i] == truth[i] {
			mark = "✓"
			correct++
		}
		fmt.Printf("  patient %d: server saw masked class %d → clinic decodes %q %s\n",
			i+1, masked[i], name, mark)
	}
	fmt.Printf("%d/%d correct — trained and predicted without revealing a single record\n",
		correct, len(preds))
	return nil
}

// submitClinic encrypts one clinic's shard and streams it to the training
// server.
func submitClinic(id int, authAddr, trainAddr string, labels *core.LabelMap, logger *log.Logger) error {
	keys, err := wire.DialKeyService(authAddr)
	if err != nil {
		return err
	}
	defer keys.Close()
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), labels)
	if err != nil {
		return err
	}
	var batches []*core.EncryptedBatch
	for from := 0; from+batchSize <= patientsPer; from += batchSize {
		x, y, _ := clinicRecords(int64(id*1000+from), batchSize)
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			return err
		}
		batches = append(batches, enc)
	}
	conn, err := wire.Dial(trainAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SubmitBatches(batches); err != nil {
		return err
	}
	logger.Printf("clinic %d: submitted %d encrypted batch(es) (%d patients)", id, len(batches), patientsPer)
	return nil
}

// clinicRecords generates synthetic patient records with a learnable
// rule: patients whose weighted vitals exceed a threshold are at-risk.
// Returns (features × n) inputs, (classes × n) one-hot labels and the
// true class per patient.
func clinicRecords(seed int64, n int) (*tensor.Dense, *tensor.Dense, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewDense(features, n)
	y := tensor.NewDense(classes, n)
	truth := make([]int, n)
	for j := 0; j < n; j++ {
		var score float64
		for i := 0; i < features; i++ {
			v := rng.Float64() // normalized vital / lab value
			x.Set(i, j, v)
			if i < 4 { // the first four features drive the condition
				score += v
			}
		}
		cls := 0
		if score > 2 {
			cls = 1
		}
		truth[j] = cls
		y.Set(cls, j, 1)
	}
	return x, y, truth
}
