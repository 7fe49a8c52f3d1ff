package wire

// Golden-frame protocol compatibility tests: one committed frame per frame
// type under testdata/golden/<frame name>.bin, plus the two handshake
// frames. Frames are byte-compared in both directions — today's encoder
// must reproduce the golden, today's decoder must accept it and re-encode
// it canonically. The layout is hand-specified in docs/PROTOCOL.md, so any
// byte drift is a compatibility break, allowed only together with a
// CodecVersion bump and regenerated goldens (see "Changing the wire
// format" there):
//
//	go test ./internal/wire/ -run TestGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/group"
	"cryptonn/internal/thresh"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden frame files")

// memConn adapts a bytes.Buffer to net.Conn so frames can be built and
// replayed in memory.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// binFrame renders one full frame (header + body) to bytes.
func binFrame(t testing.TB, ftype byte, id uint64, fill fillFunc) []byte {
	t.Helper()
	var mc memConn
	if err := newBinConn(&mc).writeFrame(ftype, id, fill); err != nil {
		t.Fatalf("%s: %v", frameName(ftype), err)
	}
	return append([]byte(nil), mc.Bytes()...)
}

// splitFrame parses one full frame back into type, id and body.
func splitFrame(frame []byte) (ftype byte, id uint64, body []byte, err error) {
	var mc memConn
	mc.Write(frame)
	ftype, id, body, err = newBinConn(&mc).readFrame()
	if err == nil && mc.Len() != 0 {
		err = fmt.Errorf("%d bytes after the frame", mc.Len())
	}
	return ftype, id, body, err
}

// goldenFrames renders the canonical frame of every type, built from a
// fixed seed. The construction order is part of the fixture: the shared
// rng makes each message's contents depend on it, so new messages draw
// strictly after the existing ones.
func goldenFrames(t testing.TB) map[byte][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	predictBatch := synthBatch(rng, 3, 4, 2, false)
	submitBatch := synthBatch(rng, 3, 4, 2, true)
	convBatch := synthConvBatch(rng)
	sparseBatch := synthSparseBatch(rng, 6, 4, 2, 3)
	topk := [][]dlog.TopKHit{
		{{Index: 3, Value: 123456}, {Index: 0, Value: -7}},
		{{Index: 1, Value: 1 << 40}},
	}
	// Key plane: the embedded test group, so element widths are real.
	p := group.TestParams()
	elem := func(e int64) *big.Int { return p.PowGInt64(e) }
	ys := [][]int64{{1, -2, 300}, {0, 1 << 40, -(1 << 20)}}
	cmts := []*big.Int{elem(3), elem(11)}
	var errConn memConn
	if err := newBinConn(&errConn).writeErr(11, "prediction queue full", true); err != nil {
		t.Fatal(err)
	}
	fills := map[byte]fillFunc{
		bfPredict:     func(b []byte) ([]byte, error) { return appendEncryptedBatch(b, predictBatch) },
		bfSubmit:      func(b []byte) ([]byte, error) { return appendEncryptedBatch(b, submitBatch) },
		bfSubmitConv:  func(b []byte) ([]byte, error) { return appendConvBatch(b, convBatch) },
		bfDone:        emptyBody,
		bfPredictTopK: func(b []byte) ([]byte, error) { return appendSparseBatch(b, 2, sparseBatch) },
		bfPreds:       func(b []byte) ([]byte, error) { return appendPreds(b, []int{3, 0, 2}) },
		bfAck:         emptyBody,
		bfErr:         rawBody(errConn.Bytes()[binHeaderLen:]),
		bfTopK:        func(b []byte) ([]byte, error) { return appendTopKHits(b, topk) },

		bfFEIPPublic: func(b []byte) ([]byte, error) { return appendU32(b, 784) },
		bfFEBOPublic: emptyBody,
		bfIPKeySparse: func(b []byte) ([]byte, error) {
			return appendSparseKeyRequest(b, 10000, []int{2, 130, 9999}, []int64{5, -70000, 1})
		},
		bfIPKeyBatch:        func(b []byte) ([]byte, error) { return appendScalarMatrix(b, ys) },
		bfBOKeyBatch:        func(b []byte) ([]byte, error) { return appendBORequest(b, cmts, febo.OpAdd, []int64{7, -1 << 33}) },
		bfClusterInfo:       emptyBody,
		bfPartialIPKeyBatch: func(b []byte) ([]byte, error) { return appendScalarMatrix(b, ys) },
		bfPartialBOKeyBatch: func(b []byte) ([]byte, error) { return appendBORequest(b, cmts, febo.OpDiv, []int64{2, 3}) },

		bfPublicKey: func(b []byte) ([]byte, error) { return appendPublicKey(b, p, []*big.Int{elem(5), elem(6), elem(7)}) },
		bfKey:       func(b []byte) ([]byte, error) { return appendKey(b, big.NewInt(0xC0FFEE)) },
		bfKeyBatch:  func(b []byte) ([]byte, error) { return appendElems(b, []*big.Int{big.NewInt(1), big.NewInt(1 << 50)}) },
		bfCluster: func(b []byte) ([]byte, error) {
			return appendClusterInfo(b, &clusterInfo{NodeIndex: 2, Threshold: 2,
				Key: publicKeyMsg{P: p.P, Q: p.Q, G: p.G, H: []*big.Int{elem(9), elem(21), elem(22), elem(23)}}})
		},
		bfPartialKeys: func(b []byte) ([]byte, error) {
			return appendPartialKeys(b, &partialKeys{NodeIndex: 3, Ks: []*big.Int{elem(31), elem(32)},
				Proof: &thresh.EqProof{C: big.NewInt(0xABCDEF), Z: big.NewInt(0x123456789)}})
		},
	}
	frames := make(map[byte][]byte, len(fills))
	for ftype, fill := range fills {
		frames[ftype] = binFrame(t, ftype, uint64(ftype), fill)
	}
	return frames
}

// reencode decodes a frame body by its type and encodes the result again:
// the canonical round trip the goldens and the fuzzer both hold the codec
// to. Key-plane bodies are decoded under the loosest limits.
func reencode(ftype byte, body []byte) ([]byte, error) {
	lim := anyGroup
	switch ftype {
	case bfPredict, bfSubmit:
		enc, err := decodeEncryptedBatch(body)
		if err != nil {
			return nil, err
		}
		return appendEncryptedBatch(nil, enc)
	case bfSubmitConv:
		enc, err := decodeConvBatch(body)
		if err != nil {
			return nil, err
		}
		return appendConvBatch(nil, enc)
	case bfPredictTopK:
		k, sp, err := decodeSparseBatch(body)
		if err != nil {
			return nil, err
		}
		return appendSparseBatch(nil, k, sp)
	case bfPreds:
		preds, err := decodePreds(body)
		if err != nil {
			return nil, err
		}
		return appendPreds(nil, preds)
	case bfTopK:
		hits, err := decodeTopKHits(body)
		if err != nil {
			return nil, err
		}
		return appendTopKHits(nil, hits)
	case bfErr:
		_, _, err := decodeErrBody(body)
		return body, err
	case bfDone, bfAck, bfFEBOPublic, bfClusterInfo:
		return body, decodeEmpty(body)
	case bfFEIPPublic:
		eta, err := decodeDim(body, lim)
		if err != nil {
			return nil, err
		}
		return appendU32(nil, eta)
	case bfIPKeyBatch, bfPartialIPKeyBatch:
		ys, err := decodeScalarMatrix(body, lim)
		if err != nil {
			return nil, err
		}
		return appendScalarMatrix(nil, ys)
	case bfIPKeySparse:
		eta, idx, vals, err := decodeSparseKeyRequest(body, lim)
		if err != nil {
			return nil, err
		}
		return appendSparseKeyRequest(nil, eta, idx, vals)
	case bfBOKeyBatch, bfPartialBOKeyBatch:
		cmts, op, ys, err := decodeBORequest(body, lim)
		if err != nil {
			return nil, err
		}
		return appendBORequest(nil, cmts, op, ys)
	case bfPublicKey:
		m, err := decodePublicKey(body)
		if err != nil {
			return nil, err
		}
		return appendPublicKey(nil, &group.Params{P: m.P, Q: m.Q, G: m.G}, m.H)
	case bfKey:
		k, err := decodeKey(body, lim)
		if err != nil {
			return nil, err
		}
		return appendKey(nil, k)
	case bfKeyBatch:
		ks, err := decodeKeyBatch(body, lim)
		if err != nil {
			return nil, err
		}
		return appendElems(nil, ks)
	case bfCluster:
		ci, err := decodeClusterInfo(body)
		if err != nil {
			return nil, err
		}
		return appendClusterInfo(nil, ci)
	case bfPartialKeys:
		pk, err := decodePartialKeys(body, lim)
		if err != nil {
			return nil, err
		}
		return appendPartialKeys(nil, pk)
	default:
		return nil, fmt.Errorf("no decoder for %s", frameName(ftype))
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".bin") }

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	frame, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden (run with -update after an intentional format change): %v", err)
	}
	return frame
}

// TestGoldenFrames pins today's encoder to the committed bytes and replays
// each committed frame through the decoder: byte-identity of the re-encoding
// proves the decoder still accepts it and that exactly one encoding exists
// per message.
func TestGoldenFrames(t *testing.T) {
	hello, ack := helloFrame(CodecVersion), ackFrame(CodecVersion)
	frames := map[string][]byte{"hello": hello[:], "hello_ack": ack[:]}
	for ftype, frame := range goldenFrames(t) {
		frames[frameName(ftype)] = frame
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath("")), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, frame := range frames {
			if err := os.WriteFile(goldenPath(name), frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %d golden frames", len(frames))
		return
	}
	for name, frame := range frames {
		want := readGolden(t, name)
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoding changed (%d bytes, golden %d).\n"+
				"The wire format is a compatibility contract: bump CodecVersion and regenerate\n"+
				"goldens with -update per docs/PROTOCOL.md, or revert the encoding change.",
				name, len(frame), len(want))
		}
		if strings.HasPrefix(name, "hello") {
			continue
		}
		ftype, id, body, err := splitFrame(want)
		if err != nil || frameName(ftype) != name || id == 0 {
			t.Errorf("%s: committed frame parses as %s id %d: %v", name, frameName(ftype), id, err)
			continue
		}
		if round, err := reencode(ftype, body); err != nil {
			t.Errorf("%s: decoder rejects committed frame: %v", name, err)
		} else if !bytes.Equal(round, body) {
			t.Errorf("%s: decode→re-encode is not canonical (%d vs %d body bytes)", name, len(round), len(body))
		}
	}
}

// TestFrameTypeTableIsClosed holds the three descriptions of the protocol
// to each other: every frame-type constant has a golden frame, a decoder
// and a row in docs/PROTOCOL.md — and nothing else does.
func TestFrameTypeTableIsClosed(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		t.Fatal(err)
	}
	goldens := goldenFrames(t)
	for ftype, name := range frameNames {
		if _, ok := goldens[ftype]; !ok {
			t.Errorf("%s (0x%02x): no golden frame", name, ftype)
		}
		if row := fmt.Sprintf("| 0x%02x  | `%s`", ftype, name); !bytes.Contains(doc, []byte(row)) {
			t.Errorf("%s: docs/PROTOCOL.md has no frame-table row starting %q", name, row)
		}
	}
	if rows := bytes.Count(doc, []byte("\n| 0x")); rows != len(frameNames) {
		t.Errorf("docs/PROTOCOL.md lists %d frame types, the codec defines %d", rows, len(frameNames))
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(frameNames) + 2; len(files) != want { // + hello, hello_ack
		t.Errorf("testdata/golden holds %d files, want %d", len(files), want)
	}
}
