package tdl

import "testing"

// TestAttrsKeyMatches: a key matches exactly the attribute sets it is the
// signature of — nil and empty alike, inlined and spilled keys alike, and no
// set that differs in a name, a value or a count, at any sorted position.
func TestAttrsKeyMatches(t *testing.T) {
	sets := []Attrs{
		nil, {},
		{"stride": 1}, {"stride": 2}, {"pad": 1},
		{"offset": 0, "size": 8}, {"offset": 8, "size": 8}, {"offset": 0, "size": 4}, {"offset": 0, "size": 8, "rank": 2},
		{"a": 1, "b": 2, "c": 3, "d": 4}, {"a": 1, "b": 2, "c": 3, "e": 4},
		{"a": 1, "b": 2, "c": 9, "d": 4}, {"a": 1, "b": 2, "c": 3, "d": 9},
		{"x": 0}, {"y": 0}, // a name missing, its value the zero value
		{"a": 0, "b": 0, "c": 0, "d": 0}, {"b": 0, "c": 0, "d": 0, "e": 0},
		{"a": 0, "c": 0, "d": 0, "e": 0}, {"a": 0, "b": 0, "d": 0, "e": 0},
		{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, {"a": 1, "b": 2, "c": 3, "d": 4, "e": 6},
		{"a": 1, "b": 2, "c": 3, "d": 4, "f": 5},
	}
	for _, a := range sets {
		k := MakeAttrsKey(a)
		for _, b := range sets {
			if got, want := k.Matches(b), k == MakeAttrsKey(b); got != want {
				t.Errorf("key of %v matches %v: %v, want %v", a, b, got, want)
			}
		}
	}
}
