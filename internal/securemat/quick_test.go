package securemat_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// quickState bundles the fixtures the property tests share; building the
// engine once keeps testing/quick's many iterations fast.
type quickState struct {
	eng *securemat.Engine
}

func newQuickState(t *testing.T, bound int64) *quickState {
	t.Helper()
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	solver, err := dlog.NewSolver(group.TestParams(), bound)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithSolver(solver)
	return &quickState{eng: eng}
}

// boundedMatrix derives a rows×cols matrix with entries in [-limit,
// limit] from a random seed, so quick generates arbitrary but replayable
// inputs.
func boundedMatrix(seed int64, rows, cols int, limit int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			m[i][j] = rng.Int63n(2*limit+1) - limit
		}
	}
	return m
}

// TestQuickSecureDotMatchesPlaintext: for arbitrary small matrices W and
// X, the secure dot-product over encrypted X equals the plaintext W·X.
func TestQuickSecureDotMatchesPlaintext(t *testing.T) {
	const (
		limit = 20
		maxD  = 4
	)
	st := newQuickState(t, int64(maxD)*limit*limit+1)
	prop := func(seed int64, d1, d2, d3 uint8) bool {
		rows := int(d1%maxD) + 1 // W rows
		inner := int(d2%maxD) + 1
		cols := int(d3%maxD) + 1 // X cols
		w := boundedMatrix(seed, rows, inner, limit)
		x := boundedMatrix(seed+1, inner, cols, limit)

		enc, err := st.eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
		if err != nil {
			t.Logf("encrypt: %v", err)
			return false
		}
		keys, err := st.eng.DotKeys(w)
		if err != nil {
			t.Logf("keys: %v", err)
			return false
		}
		z, err := st.eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: 1})
		if err != nil {
			t.Logf("secure dot: %v", err)
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				var want int64
				for k := 0; k < inner; k++ {
					want += w[i][k] * x[k][j]
				}
				if z[i][j] != want {
					t.Logf("z[%d][%d] = %d, want %d", i, j, z[i][j], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickSecureElementwiseMatchesPlaintext: for arbitrary matrices and
// every basic op, secure element-wise computation equals plaintext.
func TestQuickSecureElementwiseMatchesPlaintext(t *testing.T) {
	const limit = 30
	st := newQuickState(t, limit*limit+1)
	prop := func(seed int64, d1, d2 uint8, opSel uint8) bool {
		rows := int(d1%3) + 1
		cols := int(d2%3) + 1
		fs := []securemat.Function{securemat.ElementwiseAdd, securemat.ElementwiseSub, securemat.ElementwiseMul}
		f := fs[int(opSel)%len(fs)]
		x := boundedMatrix(seed, rows, cols, limit)
		y := boundedMatrix(seed+2, rows, cols, limit)

		enc, err := st.eng.Encrypt(x, securemat.EncryptOptions{})
		if err != nil {
			return false
		}
		keys, err := st.eng.ElementwiseKeys(enc, f, y)
		if err != nil {
			return false
		}
		z, err := st.eng.SecureElementwise(enc, keys, f, y, securemat.ComputeOptions{Parallelism: 1})
		if err != nil {
			t.Logf("secure %s: %v", f, err)
			return false
		}
		op, _ := f.BasicOp()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want, err := op.Apply(x[i][j], y[i][j])
				if err != nil {
					return false
				}
				if z[i][j] != want {
					t.Logf("%s: z[%d][%d] = %d, want %d", f, i, j, z[i][j], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickDualOrientationAgree: the row-oriented ciphertexts encrypt the
// same matrix as the column-oriented ones — inner products taken against
// rows and columns are mutually consistent.
func TestQuickDualOrientationAgree(t *testing.T) {
	const limit = 15
	st := newQuickState(t, 4*limit*limit+1)
	prop := func(seed int64, d1, d2 uint8) bool {
		rows := int(d1%3) + 1
		cols := int(d2%3) + 1
		x := boundedMatrix(seed, rows, cols, limit)
		enc, err := st.eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true, WithRows: true})
		if err != nil {
			return false
		}
		if !enc.HasRows() {
			t.Log("WithRows did not produce row ciphertexts")
			return false
		}
		// Probe with an all-ones weight vector in both orientations:
		// summing column j via ColCts equals summing the j-th entries
		// of every row via RowCts probed one row at a time.
		onesCols := make([]int64, rows)
		for i := range onesCols {
			onesCols[i] = 1
		}
		colKeys, err := st.eng.DotKeys([][]int64{onesCols})
		if err != nil {
			return false
		}
		colSums, err := st.eng.SecureDot(enc, colKeys, [][]int64{onesCols}, securemat.ComputeOptions{Parallelism: 1})
		if err != nil {
			return false
		}
		onesRows := make([]int64, cols)
		for i := range onesRows {
			onesRows[i] = 1
		}
		rowKeys, err := st.eng.DotKeys([][]int64{onesRows})
		if err != nil {
			return false
		}
		rowSums, err := st.eng.SecureDotRows(enc, rowKeys, [][]int64{onesRows}, securemat.ComputeOptions{Parallelism: 1})
		if err != nil {
			return false
		}
		// Total over all entries must agree between orientations.
		var colTotal, rowTotal int64
		for j := 0; j < cols; j++ {
			colTotal += colSums[0][j]
		}
		for i := 0; i < rows; i++ {
			rowTotal += rowSums[0][i]
		}
		if colTotal != rowTotal {
			t.Logf("column total %d != row total %d", colTotal, rowTotal)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
