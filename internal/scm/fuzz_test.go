package scm

import (
	"testing"
)

// FuzzSCMMessage exercises the receiver-side SCM decoder on arbitrary
// peer bytes: ScanTokens, which the receiver runs on every token row the
// OT delivers, must reject a malformed row with an error, never a panic,
// and decide a well-formed one by its first non-EQ token.
func FuzzSCMMessage(f *testing.F) {
	f.Add([]byte{8, TokenEQ, TokenLT, TokenGT, 0})
	f.Add([]byte{20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, row []byte) {
		got, err := ScanTokens(row)
		for _, tk := range row {
			if tk == TokenEQ {
				continue
			}
			if tk != TokenLT && tk != TokenGT {
				if err == nil {
					t.Fatalf("row %v: invalid token %d accepted", row, tk)
				}
				return
			}
			want := uint64(0)
			if tk == TokenLT {
				want = 1
			}
			if err != nil || got != want {
				t.Fatalf("row %v: got (%d, %v), want %d", row, got, err, want)
			}
			return
		}
		if err == nil {
			t.Fatalf("all-EQ row %v accepted", row)
		}
	})
}
