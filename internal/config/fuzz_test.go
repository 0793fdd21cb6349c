package config

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"amped/internal/units"
)

// FuzzParse checks that arbitrary bytes never panic the config parser, and
// that any document it accepts either resolves into a runnable estimator
// or fails with an error — never a panic or a nil result.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleDoc))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"training":{"global_batch":1}}`))
	f.Add([]byte(`{"model":{"preset":"mingpt"},"training":{"global_batch":-3}}`))
	f.Add([]byte(`{"model":{"preset":"mingpt"},"training":{"global_batch":8},
		"reliability":{"accel_mtbf_s":"5M","checkpoint_bw_bytes_per_s":"2G","restart_s":300}}`))
	f.Add([]byte(`{"reliability":{"accel_mtbf_s":"5M"}}`))
	f.Add([]byte(`{"reliability":{"checkpoint_interval_s":-1}}`))
	f.Add([]byte(`{"model":{"preset":"mingpt"},"training":{"global_batch":8,"roofline":true,"overlap":0.5}}`))
	f.Add([]byte(`{"system":{"accelerator":{"preset":"a100","mem_bw_bps":"16.3T"}},"training":{"global_batch":8}}`))
	f.Add([]byte(`{"mapping":{"cp_intra":2,"cp_inter":2,"vpp":2,"sequence_parallel":true},"training":{"global_batch":8}}`))
	f.Add([]byte(`{"mapping":{"cp_inter":-1},"training":{"global_batch":8,"overlap":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(data)
		if err != nil {
			return
		}
		if doc == nil {
			t.Fatal("Parse returned nil document without error")
		}
		est, err := doc.Estimator()
		if err != nil {
			return
		}
		if est == nil {
			t.Fatal("Estimator returned nil without error")
		}
		if _, err := est.Evaluate(); err == nil {
			// A fully-valid fuzzed document must produce a finite result;
			// Evaluate already guards non-finite internally.
			return
		}
	})
}

// nestedQuantity is Quantity.UnmarshalJSON's previous body, kept as a test
// oracle: a nested json.Unmarshal into a float64, then into a string.
func nestedQuantity(q *Quantity, data []byte) error {
	var num float64
	if err := json.Unmarshal(data, &num); err == nil {
		*q = Quantity(num)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("config: quantity must be a number or string: %s", data)
	}
	v, err := units.ParseQuantity(s)
	if err != nil {
		return err
	}
	*q = Quantity(v)
	return nil
}

// FuzzQuantityUnmarshal checks Quantity.UnmarshalJSON against the nested
// json.Unmarshal it replaced: the same value and the same error text for
// any input, valid JSON or not.
func FuzzQuantityUnmarshal(f *testing.F) {
	for _, s := range []string{
		`123.5`, `-0`, `0`, `1e3`, `1E+3`, `-2.5e-3`, `1e400`, `-1e400`, `1e-400`, ` 7 `, "\t8\n",
		`null`, ` null `, `nul`, `nullx`, `"2.4T"`, `"32GiB"`, `"abc"`, `""`, `"5"`, `true`, `{}`, `[1]`,
		`01`, `1.`, `.5`, `+1`, `-`, `0x10`, `1_0`, `-Inf`, `NaN`, `1e`, `1e+`, `5 6`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := Quantity(-42), Quantity(-42)
		gotErr, wantErr := got.UnmarshalJSON(data), nestedQuantity(&want, data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("UnmarshalJSON(%q) = %v, %v; nested json.Unmarshal gives %v, %v", data, got, gotErr, want, wantErr)
		}
	})
}
