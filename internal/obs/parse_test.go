package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseText feeds arbitrary text to the exposition decoder, which
// must never panic on it; and a registry holding one gauge under a
// fuzzed label value, set to a fuzzed float, must read back through
// Render → ParseText → Samples.Value with that value under that label
// (NaN as NaN). Tier-1 runs only the seed corpus.
func FuzzParseText(f *testing.F) {
	f.Add("greensched_stage_seconds_count{src=\"master\",stage=\"solve\"} 5\n", "master", 5.0)
	f.Add("# HELP x y\n# TYPE x gauge\nx{k=\"a\\\\b\\\"c\\nd\"} +Inf 1700000000\n", "a\\b\"c\nd", math.Inf(1))
	f.Add("x{k=\"unterminated} 1\n", "", math.NaN())
	f.Add("x{k=unquoted} 1\n{} 2\nx -Inf\n", "=,} {", -0.0)
	f.Add("x NaN\n\n  y{a=\"1\",,b=\"2\",} 3e-300\n", "\xff\x00", math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, text, label string, v float64) {
		ParseText(strings.NewReader(text)) // any error is fine; a panic is not

		reg := NewRegistry()
		reg.GaugeVec("fuzz_value", "A fuzzed gauge.", "k").With(label).Set(v)
		var sb strings.Builder
		if err := reg.Render(&sb); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
		}
		got, ok := samples.Value("fuzz_value", "k="+label)
		if !ok || (got != v && !(math.IsNaN(got) && math.IsNaN(v))) {
			t.Fatalf("read back %v (found %v), want %v\n%s", got, ok, v, sb.String())
		}
	})
}
