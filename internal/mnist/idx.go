package mnist

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cryptonn/internal/tensor"
)

// IDX magic numbers: unsigned-byte data with 3 dimensions (images) or 1
// dimension (labels), per LeCun's file format specification.
const (
	magicImages = 0x00000803
	magicLabels = 0x00000801
)

// ReadImages parses an IDX3 image file (uncompressed) into a Dataset-ready
// pixel matrix; labels must be attached separately.
func ReadImages(r io.Reader) (*Dataset, error) {
	var header [16]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("%w: reading image header: %v", ErrFormat, err)
	}
	magic := binary.BigEndian.Uint32(header[0:4])
	if magic != magicImages {
		return nil, fmt.Errorf("%w: image magic %#x", ErrFormat, magic)
	}
	n := int(binary.BigEndian.Uint32(header[4:8]))
	rows := int(binary.BigEndian.Uint32(header[8:12]))
	cols := int(binary.BigEndian.Uint32(header[12:16]))
	if rows != Side || cols != Side {
		return nil, fmt.Errorf("%w: image size %dx%d, want %dx%d", ErrFormat, rows, cols, Side, Side)
	}
	if n <= 0 || n > 10_000_000 {
		return nil, fmt.Errorf("%w: implausible image count %d", ErrFormat, n)
	}
	d := &Dataset{Images: tensor.NewDense(Pixels, n), Labels: make([]int, n)}
	buf := make([]byte, Pixels)
	for j := 0; j < n; j++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: reading image %d: %v", ErrFormat, j, err)
		}
		for i, b := range buf {
			d.Images.Set(i, j, float64(b)/255.0)
		}
	}
	return d, nil
}

// ReadLabels parses an IDX1 label file and attaches labels to d.
func ReadLabels(r io.Reader, d *Dataset) error {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("%w: reading label header: %v", ErrFormat, err)
	}
	magic := binary.BigEndian.Uint32(header[0:4])
	if magic != magicLabels {
		return fmt.Errorf("%w: label magic %#x", ErrFormat, magic)
	}
	n := int(binary.BigEndian.Uint32(header[4:8]))
	if n != d.Images.Cols {
		return fmt.Errorf("%w: %d labels for %d images", ErrFormat, n, d.Images.Cols)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: reading labels: %v", ErrFormat, err)
	}
	for i, b := range buf {
		if int(b) >= Classes {
			return fmt.Errorf("%w: label %d at index %d", ErrFormat, b, i)
		}
		d.Labels[i] = int(b)
	}
	return nil
}

// openMaybeGzip opens path, transparently decompressing ".gz" files. The
// returned closer releases both the file and any gzip reader.
func openMaybeGzip(path string) (io.Reader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return bufio.NewReader(f), f.Close, nil
	}
	gz, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		closeErr := f.Close()
		if closeErr != nil {
			return nil, nil, fmt.Errorf("mnist: %v (also failed to close: %v)", err, closeErr)
		}
		return nil, nil, fmt.Errorf("mnist: opening gzip %s: %w", path, err)
	}
	closer := func() error {
		if err := gz.Close(); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return gz, closer, nil
}

// findFile returns the first existing candidate among name and name+".gz".
func findFile(dir, name string) (string, bool) {
	for _, cand := range []string{name, name + ".gz"} {
		p := filepath.Join(dir, cand)
		if _, err := os.Stat(p); err == nil {
			return p, true
		}
	}
	return "", false
}

// LoadDir loads the standard MNIST file pair (train or t10k) from dir,
// accepting gzipped or plain files.
func LoadDir(dir, prefix string) (*Dataset, error) {
	imgPath, ok := findFile(dir, prefix+"-images-idx3-ubyte")
	if !ok {
		return nil, fmt.Errorf("mnist: no %s image file in %s", prefix, dir)
	}
	lblPath, ok := findFile(dir, prefix+"-labels-idx1-ubyte")
	if !ok {
		return nil, fmt.Errorf("mnist: no %s label file in %s", prefix, dir)
	}
	imgR, imgClose, err := openMaybeGzip(imgPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = imgClose() }()
	d, err := ReadImages(imgR)
	if err != nil {
		return nil, fmt.Errorf("mnist: %s: %w", imgPath, err)
	}
	lblR, lblClose, err := openMaybeGzip(lblPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = lblClose() }()
	if err := ReadLabels(lblR, d); err != nil {
		return nil, fmt.Errorf("mnist: %s: %w", lblPath, err)
	}
	return d, nil
}

// Load returns the paper's training workload: real MNIST from the
// directory in the MNIST_DIR environment variable when available,
// otherwise n synthetic samples from the given seed. The returned bool
// reports whether real data was used.
func Load(train bool, n int, seed int64) (*Dataset, bool, error) {
	prefix := "train"
	if !train {
		prefix = "t10k"
	}
	if dir := os.Getenv("MNIST_DIR"); dir != "" {
		d, err := LoadDir(dir, prefix)
		if err == nil {
			if n > 0 && n < d.N() {
				sub, err := d.Subset(n)
				if err != nil {
					return nil, false, err
				}
				return sub, true, nil
			}
			return d, true, nil
		}
	}
	d, err := Synthetic(n, seed)
	if err != nil {
		return nil, false, err
	}
	return d, false, nil
}
