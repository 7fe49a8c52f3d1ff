package wire

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDecodeFrame feeds whole frames (header + body) to the decoder of
// their declared type. Whatever the bytes: no panic; heap allocated while
// decoding stays proportional to the input (the count-before-allocate
// rule); and a body that decodes re-encodes to a fixed point — encoding
// the decoded value, decoding that and encoding again changes nothing.
func FuzzDecodeFrame(f *testing.F) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, name := range files {
		f.Add(readGolden(f, filepath.Base(name[:len(name)-len(".bin")])))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		ftype, _, body, err := splitFrame(frame)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		first, err := reencode(ftype, body)
		runtime.ReadMemStats(&after)
		// Decoded elements cost a big.Int header per wire byte at worst;
		// 256× the input plus slack covers that and the re-encoding.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256*len(body)+1<<16); grew > bound {
			t.Fatalf("%s: decoding %d body bytes allocated %d (bound %d)", frameName(ftype), len(body), grew, bound)
		}
		if err != nil {
			return
		}
		second, err := reencode(ftype, first)
		if err != nil {
			t.Fatalf("%s: own encoding rejected: %v", frameName(ftype), err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: encoding is not a fixed point (%d vs %d bytes)", frameName(ftype), len(first), len(second))
		}
	})
}
