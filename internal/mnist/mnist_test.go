package mnist

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cryptonn/internal/nn"
)

func TestSyntheticBasics(t *testing.T) {
	d, err := Synthetic(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 100 || d.Images.Rows != Pixels || d.Images.Cols != 100 {
		t.Errorf("N = %d, images %dx%d", d.N(), d.Images.Rows, d.Images.Cols)
	}
	// Pixel range.
	for _, v := range d.Images.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
	// Balanced classes (10 samples per class for n=100).
	counts := make([]int, Classes)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := Synthetic(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			t.Fatal("same seed must give identical images")
		}
	}
	c, err := Synthetic(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Images.Data {
		if a.Images.Data[i] != c.Images.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSyntheticRejectsBadCount(t *testing.T) {
	if _, err := Synthetic(0, 1); err == nil {
		t.Error("zero samples should fail")
	}
}

func TestSyntheticDigitsDifferAcrossClasses(t *testing.T) {
	// Mean images of different digits must be far apart; a degenerate
	// generator (all classes alike) would break every experiment.
	d, err := Synthetic(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, Classes)
	counts := make([]int, Classes)
	for c := range means {
		means[c] = make([]float64, Pixels)
	}
	for j := 0; j < d.N(); j++ {
		l := d.Labels[j]
		counts[l]++
		for i := 0; i < Pixels; i++ {
			means[l][i] += d.Images.At(i, j)
		}
	}
	for c := range means {
		for i := range means[c] {
			means[c][i] /= float64(counts[c])
		}
	}
	var dist float64
	for i := range means[1] {
		diff := means[1][i] - means[8][i]
		dist += diff * diff
	}
	if dist < 1 {
		t.Errorf("digit 1 and 8 mean images too close: %v", dist)
	}
}

func TestOneHotAndBatch(t *testing.T) {
	d, err := Synthetic(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, yb, err := d.Batch(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < yb.Cols; j++ {
		var sum float64
		for i := 0; i < Classes; i++ {
			sum += yb.At(i, j)
		}
		if sum != 1 || yb.At(d.Labels[5+j], j) != 1 {
			t.Fatalf("column %d not one-hot", j)
		}
	}
	if x.Cols != 10 || yb.Cols != 10 {
		t.Error("batch size wrong")
	}
	if x.At(0, 0) != d.Images.At(0, 5) {
		t.Error("batch misaligned")
	}
	if _, _, err := d.Batch(20, 10); err == nil {
		t.Error("inverted batch range should fail")
	}
	if _, _, err := d.Batch(0, 99); err == nil {
		t.Error("overlong batch should fail")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d, err := Synthetic(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Tag each image's first pixel with its label for pairing detection.
	for j := 0; j < d.N(); j++ {
		d.Images.Set(0, j, float64(d.Labels[j])/100.0)
	}
	d.Shuffle(rand.New(rand.NewSource(1)))
	for j := 0; j < d.N(); j++ {
		if d.Images.At(0, j) != float64(d.Labels[j])/100.0 {
			t.Fatal("shuffle broke image-label pairing")
		}
	}
}

func TestSubset(t *testing.T) {
	d, err := Synthetic(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Subset(10)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 10 {
		t.Errorf("subset N = %d", s.N())
	}
	if s.Labels[3] != d.Labels[3] || s.Images.At(100, 3) != d.Images.At(100, 3) {
		t.Error("subset content mismatch")
	}
	if _, err := d.Subset(0); err == nil {
		t.Error("zero subset should fail")
	}
	if _, err := d.Subset(41); err == nil {
		t.Error("oversized subset should fail")
	}
}

func TestIDXRoundTrip(t *testing.T) {
	d, err := Synthetic(25, 6)
	if err != nil {
		t.Fatal(err)
	}
	var imgBuf, lblBuf bytes.Buffer
	if err := writeImages(&imgBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := writeLabels(&lblBuf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImages(&imgBuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadLabels(&lblBuf, back); err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("round trip N = %d", back.N())
	}
	for j := 0; j < d.N(); j++ {
		if back.Labels[j] != d.Labels[j] {
			t.Fatalf("label %d mismatch", j)
		}
	}
	// Pixels quantised to 1/255; allow that error.
	for i := 0; i < Pixels; i++ {
		diff := back.Images.At(i, 0) - d.Images.At(i, 0)
		if diff > 1.0/254 || diff < -1.0/254 {
			t.Fatalf("pixel %d: %v vs %v", i, back.Images.At(i, 0), d.Images.At(i, 0))
		}
	}
}

func TestReadImagesRejectsGarbage(t *testing.T) {
	if _, err := ReadImages(bytes.NewReader([]byte{1, 2, 3})); !errors.Is(err, ErrFormat) {
		t.Errorf("short header: err = %v", err)
	}
	bad := make([]byte, 16)
	if _, err := ReadImages(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("zero magic: err = %v", err)
	}
}

func TestReadLabelsRejectsMismatch(t *testing.T) {
	d, err := Synthetic(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lblBuf bytes.Buffer
	big, err := Synthetic(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLabels(&lblBuf, big); err != nil {
		t.Fatal(err)
	}
	if err := ReadLabels(&lblBuf, d); !errors.Is(err, ErrFormat) {
		t.Errorf("count mismatch: err = %v", err)
	}
}

func TestLoadDirWithGzip(t *testing.T) {
	dir := t.TempDir()
	d, err := Synthetic(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	writeGz := func(name string, fn func(w *gzip.Writer) error) {
		t.Helper()
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		gz := gzip.NewWriter(f)
		if err := fn(gz); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeGz("train-images-idx3-ubyte.gz", func(w *gzip.Writer) error { return writeImages(w, d) })
	writeGz("train-labels-idx1-ubyte.gz", func(w *gzip.Writer) error { return writeLabels(w, d) })

	got, err := LoadDir(dir, "train")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 12 {
		t.Errorf("loaded N = %d", got.N())
	}
	if _, err := LoadDir(dir, "t10k"); err == nil {
		t.Error("missing test files should fail")
	}
}

func TestLoadFallsBackToSynthetic(t *testing.T) {
	t.Setenv("MNIST_DIR", "")
	d, real, err := Load(true, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if real {
		t.Error("should have used synthetic data")
	}
	if d.N() != 15 {
		t.Errorf("N = %d", d.N())
	}
}

func TestLoadRealFromEnv(t *testing.T) {
	dir := t.TempDir()
	d, err := Synthetic(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	imgF, err := os.Create(filepath.Join(dir, "train-images-idx3-ubyte"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeImages(imgF, d); err != nil {
		t.Fatal(err)
	}
	if err := imgF.Close(); err != nil {
		t.Fatal(err)
	}
	lblF, err := os.Create(filepath.Join(dir, "train-labels-idx1-ubyte"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLabels(lblF, d); err != nil {
		t.Fatal(err)
	}
	if err := lblF.Close(); err != nil {
		t.Fatal(err)
	}
	t.Setenv("MNIST_DIR", dir)
	got, real, err := Load(true, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !real {
		t.Error("should have loaded real files")
	}
	if got.N() != 8 {
		t.Errorf("N = %d, want 8 (subset)", got.N())
	}
}

// A small MLP must learn the synthetic digits to high accuracy quickly:
// this validates the generator is learnable, the property every
// accuracy-parity experiment depends on.
func TestSyntheticIsLearnable(t *testing.T) {
	train, err := Synthetic(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	test, err := Synthetic(100, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	m, err := nn.NewMLP(Pixels, Classes, []int{32}, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := nn.NewSGD(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 50
	for epoch := 0; epoch < 6; epoch++ {
		for from := 0; from+batch <= train.N(); from += batch {
			x, y, err := train.Batch(from, from+batch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.TrainBatch(x, y, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	x, y, err := test.Batch(0, test.N())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := m.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("test accuracy %v < 0.9: generator not learnable enough", acc)
	}
}

// writeImages emits an IDX3 image file, the format LoadDir reads.
func writeImages(w io.Writer, d *Dataset) error {
	var header [16]byte
	binary.BigEndian.PutUint32(header[0:4], magicImages)
	binary.BigEndian.PutUint32(header[4:8], uint32(d.N()))
	binary.BigEndian.PutUint32(header[8:12], Side)
	binary.BigEndian.PutUint32(header[12:16], Side)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("mnist: writing image header: %w", err)
	}
	buf := make([]byte, Pixels)
	for j := 0; j < d.N(); j++ {
		for i := 0; i < Pixels; i++ {
			v := d.Images.At(i, j)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			buf[i] = byte(v*255 + 0.5)
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("mnist: writing image %d: %w", j, err)
		}
	}
	return nil
}

// writeLabels emits an IDX1 label file.
func writeLabels(w io.Writer, d *Dataset) error {
	var header [8]byte
	binary.BigEndian.PutUint32(header[0:4], magicLabels)
	binary.BigEndian.PutUint32(header[4:8], uint32(d.N()))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("mnist: writing label header: %w", err)
	}
	buf := make([]byte, d.N())
	for i, l := range d.Labels {
		buf[i] = byte(l)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("mnist: writing labels: %w", err)
	}
	return nil
}
