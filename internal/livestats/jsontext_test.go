package livestats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONText pins the /health text helpers to encoding/json: for any
// string the quoting helper's bytes equal json.Marshal's, and for any
// float64 bit pattern so do the float helper's, which rejects NaN and ±Inf
// with encoding/json's error text and leaves dst alone.
func FuzzJSONText(f *testing.F) {
	var ctl []byte
	for b := byte(0); b < 0x20; b++ {
		ctl = append(ctl, b)
	}
	strs := []string{
		"<>&", string(rune(0x2028)), string(rune(0x2029)), string(ctl), "\x7f",
		"\xff", "a\xc3(b", "\xed\xa0\x80", "seg:ring-post→verdict", `e2e "q" \ /`, "",
	}
	floats := []float64{
		1e-7, 1e-6, 1e21, 1e20, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		0.01, -123456.789, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i := 0; i < max(len(strs), len(floats)); i++ {
		f.Add(strs[i%len(strs)], math.Float64bits(floats[i%len(floats)]))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendJSONString(%q) = %s, want x%s", s, got, want)
		}

		v := math.Float64frombits(bits)
		got, err := AppendJSONFloat([]byte("x"), v)
		want, wantErr := json.Marshal(v)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() || string(got) != "x" {
				t.Errorf("AppendJSONFloat(%v) = %q, %v; want dst unchanged and %q", v, got, err, wantErr)
			}
		case err != nil || !bytes.Equal(got, append([]byte("x"), want...)):
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want x%s", v, got, err, want)
		}
	})
}
