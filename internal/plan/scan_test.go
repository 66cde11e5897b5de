package plan

import (
	"bytes"
	"fmt"
	"testing"
)

// The entry fast path's exactness argument, checked entry by entry: whenever
// cutEntry or strategyEntry accepts, the token scanner accepts the same bytes
// with the same ID, the same values and the same end offset; whenever it
// refuses, it has not moved. Inputs are WriteJSON's own entries and every
// one-byte deletion, replacement and insertion of them, after several
// previous IDs, followed by either of the bytes WriteJSON writes next.

// fastEntries are canonical entries as WriteJSON writes them, from the
// opening quote of the ID to the end of the value.
var fastEntries = []struct {
	strategy bool
	entry    string
}{
	{false, `"0": 0`},
	{false, `"123": 1`},
	{false, `"7": 3`},
	{true, "\"12\": {\n          \"kind\": \"output\",\n          \"axis\": \"i\"\n        }"},
	{true, "\"12\": {\n          \"kind\": \"output\",\n          \"axis\": \"batch\",\n          \"dim\": 2\n        }"},
	{true, "\"1000\": {\n          \"kind\": \"reduce\",\n          \"axis\": \"k\",\n          \"dim\": -1\n        }"},
}

// fastMutants returns entry and its one-byte edits over a small alphabet of
// bytes that matter to the grammar.
func fastMutants(entry string) []string {
	alphabet := []string{"0", "1", "9", "-", `"`, `\`, ",", ":", " ", "\n", "\r", "\t", "{", "}", ".", "e", "a", "O", "\xc3", "\x7f", "\x1f"}
	out := []string{entry}
	for i := 0; i <= len(entry); i++ {
		if i < len(entry) {
			out = append(out, entry[:i]+entry[i+1:])
		}
		for _, c := range alphabet {
			out = append(out, entry[:i]+c+entry[i:])
			if i < len(entry) {
				out = append(out, entry[:i]+c+entry[i+1:])
			}
		}
	}
	return out
}

// checkFastEntry holds one fast-path call to the token scanner on in.
func checkFastEntry(t *testing.T, strategy, full bool, in string, prev []byte) (accepted bool) {
	t.Helper()
	fast := scanner{b: []byte(in), full: full}
	tok := scanner{b: []byte(in), full: full}
	var k1, k2 []byte
	var v1, v2 strat
	var ok bool
	if strategy {
		k1, v1, ok = fast.strategyEntry(prev)
		k2 = tok.id(prev, "node")
		v2 = tok.strategy(k2)
		if !full {
			v2.Axis = "" // only a scanner building maps copies the axis out
		}
	} else {
		k1, v1.Dim, ok = fast.cutEntry(prev)
		k2 = tok.id(prev, "tensor")
		if v2.Dim = tok.narrow(); v2.Dim < 0 {
			tok.failStep("tensor %s: invalid cut dim %d", k2, v2.Dim)
		}
	}
	switch {
	case fast.err != nil:
		t.Fatalf("fast path reported %v on %q", fast.err, in)
	case !ok && fast.i != 0:
		t.Fatalf("fast path refused %q but moved to offset %d", in, fast.i)
	case ok && tok.err != nil:
		t.Fatalf("fast path accepted %q after %q; the token scanner says %v", in, prev, tok.err)
	case ok && (!bytes.Equal(k1, k2) || v1 != v2 || fast.i != tok.i):
		t.Fatalf("fast path read %q as %q %+v ending at %d; the token scanner as %q %+v ending at %d",
			in, k1, v1, fast.i, k2, v2, tok.i)
	}
	return ok
}

func TestEntryFastPathMatchesTokenScanner(t *testing.T) {
	prevs := [][]byte{nil, []byte("0"), []byte("1"), []byte("12"), []byte("123"), []byte("124"), []byte("7"), []byte("99")}
	var accepted, refused int
	for _, e := range fastEntries {
		for mi, in := range fastMutants(e.entry) {
			for _, next := range []string{",\n        \"99999\": 0", "\n      }"} {
				for _, prev := range prevs {
					for _, full := range []bool{false, true} {
						ok := checkFastEntry(t, e.strategy, full, in+next, prev)
						if mi == 0 && prev == nil && !ok {
							t.Fatalf("fast path refused WriteJSON's own entry %q", in+next)
						}
						if ok {
							accepted++
						} else {
							refused++
						}
					}
				}
			}
		}
	}
	// IDs and dims around the fast path's digit limits, and signed zeros.
	const maxInt = "9223372036854775807"
	for _, id := range []string{"1", "12345678901234567", "123456789012345678", "1234567890123456789", maxInt, "9223372036854775808", "12345678901234567890"} {
		for _, dim := range []string{"0", "-0", "7", "123456789", "1234567890", "01", "-1", "9223372036854775807", "12345678901234567890"} {
			cut := fmt.Sprintf(`"%s": %s`, id, dim) + "\n      }"
			out := fmt.Sprintf("\"%s\": {\n          \"kind\": \"output\",\n          \"axis\": \"i\",\n          \"dim\": %s\n        }", id, dim) + "\n      }"
			for _, full := range []bool{false, true} {
				checkFastEntry(t, false, full, cut, nil)
				checkFastEntry(t, true, full, out, nil)
			}
		}
	}
	t.Logf("%d fast-path accepts, %d refusals", accepted, refused)
}
