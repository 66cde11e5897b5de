package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// scanner is the single-pass reader behind ReadJSON and Verify. It accepts
// exactly the plan object of the wire format — any key order and whitespace,
// the null encoding/json writes for a nil slice or map — and nothing
// else: keys are matched byte for byte and at most once, IDs must be in
// canonical decimal form and ascending in WriteJSON's (decimal-string) order,
// and only whitespace may follow the closing brace. The first error sticks:
// after it every method returns zero values and every loop ends.
type scanner struct {
	b    []byte
	i    int
	err  error
	full bool // build the TensorCut / OpStrategy maps (ReadJSON); Verify only checks them
	step int  // index of the step being scanned, for error messages

	// Steps all list nearly the same IDs, so the previous step's entry counts
	// size the next step's maps.
	nCut, nStrat int
}

// Bits of the per-object "seen" masks that reject duplicate keys; an object
// uses the bits of its own fields.
const (
	kDigest = 1 << iota
	kWorkers
	kSteps
	kPipeline
	kDegraded
	kTotal
	kWays
	kMultiplier
	kComm
	kLevel
	kStage
	kTensorCut
	kOpStrategy
	kKind
	kAxis
	kDim
	kStages
	kGroups
	kHandoff
)

func (s *scanner) fail(msg string) {
	if s.err == nil {
		s.err = fmt.Errorf("plan: decoding: %s at offset %d", msg, s.i)
	}
}

func (s *scanner) failStep(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("plan: step %d: %s", s.step, fmt.Sprintf(format, args...))
	}
}

//tofu:hotpath
func (s *scanner) ws() {
	// Indentation is two fifths of a plan, so the space test comes first.
	for b := s.b; s.i < len(b); s.i++ {
		if c := b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of input (0 is never valid
// where peek is used, so it needs no separate signal).
//
//tofu:hotpath
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c and the whitespace after it.
//
//tofu:hotpath
func (s *scanner) expect(c byte) {
	if s.err != nil {
		return
	}
	if s.peek() != c {
		s.fail("expected '" + string(rune(c)) + "'")
		return
	}
	s.i++
	s.ws()
}

// more drives the loop over an object's or array's elements after its
// opening delimiter: it reports whether another element follows, consuming
// the separating comma or the closing delimiter.
//
//tofu:hotpath
func (s *scanner) more(first *bool, closer byte) bool {
	if s.err != nil {
		return false
	}
	c := s.peek()
	switch {
	case *first && c != closer:
		*first = false
		return true
	case c == closer:
		*first = false
		s.i++
		s.ws()
		return false
	case c == ',':
		s.i++
		s.ws()
		return true
	}
	s.fail("expected ',' or '" + string(rune(closer)) + "'")
	return false
}

// null consumes a null literal if one is next. Only the containers accept
// it: encoding/json writes a nil slice or map that way.
func (s *scanner) null() bool {
	if s.err == nil && bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		s.ws()
		return true
	}
	return false
}

func (s *scanner) bool() bool {
	if s.err != nil {
		return false
	}
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		s.ws()
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		s.ws()
		return false
	}
	s.fail("expected true or false")
	return false
}

// str scans a string value and returns the bytes between its quotes, and
// whether they are plain: printable ASCII with no escape, which stands for
// itself. Escapes are skipped here and left to text to decode.
//
//tofu:hotpath
func (s *scanner) str() (raw []byte, plain bool) {
	if s.err != nil {
		return nil, false
	}
	if s.peek() != '"' {
		s.fail("expected a string")
		return nil, false
	}
	plain = true
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			raw = s.b[s.i+1 : j]
			s.i = j + 1
			s.ws()
			return raw, plain
		case c == '\\':
			plain = false
			j++
		case c < 0x20:
			s.i = j
			s.fail("control character in string")
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	s.fail("unterminated string")
	return nil, false
}

// text decodes a scanned string. Strings with escapes or non-ASCII bytes —
// no plan WriteJSON produces has one — go through encoding/json, so its
// unquoting rules (surrogates, invalid UTF-8) are not restated here.
func (s *scanner) text(raw []byte, plain bool) string {
	if s.err != nil {
		return ""
	}
	if plain {
		return string(raw)
	}
	quoted := make([]byte, 0, len(raw)+2)
	quoted = append(append(append(quoted, '"'), raw...), '"')
	var out string
	if err := json.Unmarshal(quoted, &out); err != nil {
		s.fail("invalid string")
	}
	return out
}

// key scans a field name and the colon after it. Field names carry no
// escapes; one that does matches no field.
//
//tofu:hotpath
func (s *scanner) key() []byte {
	k, _ := s.str()
	s.expect(':')
	return k
}

// seen records a field of the current object and rejects its second
// occurrence (encoding/json would let the last one win).
//
//tofu:hotpath
func (s *scanner) seen(mask *uint, bit uint) {
	if *mask&bit != 0 {
		s.fail("duplicate key")
	}
	*mask |= bit
}

func (s *scanner) unknown(k []byte) {
	if s.err == nil {
		s.err = fmt.Errorf("plan: decoding: unknown field %q", k)
	}
}

// int scans an integer: JSON's number grammar without fraction or exponent,
// as encoding/json demands for an integer field, within ±MaxInt64.
//
//tofu:hotpath
func (s *scanner) int() int64 {
	if s.err != nil {
		return 0
	}
	neg := s.peek() == '-'
	if neg {
		s.i++
	}
	n, ok := s.digits()
	if c := s.peek(); c == '.' || c == 'e' || c == 'E' {
		ok = false
	}
	if !ok {
		s.fail("expected an integer")
		return 0
	}
	s.ws()
	if neg {
		return -n
	}
	return n
}

// digits scans "0" or a run of digits without a leading zero, and reports
// whether it found one that fits an int64.
//
//tofu:hotpath
func (s *scanner) digits() (n int64, ok bool) {
	start := s.i
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := int64(s.b[s.i] - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if s.i == start || (s.b[start] == '0' && s.i > start+1) {
		return 0, false
	}
	return n, true
}

// narrow is int for the fields declared int rather than int64.
//
//tofu:hotpath
func (s *scanner) narrow() int {
	v := s.int()
	if int64(int(v)) != v {
		s.fail("integer out of range")
	}
	return int(v)
}

// float scans a number by JSON's grammar and converts it with strconv, the
// inverse of the encoder; a magnitude float64 cannot hold is an error.
func (s *scanner) float() float64 {
	if s.err != nil {
		return 0
	}
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	ok := s.digitRun(true)
	if ok && s.peek() == '.' {
		s.i++
		ok = s.digitRun(false)
	}
	if c := s.peek(); ok && (c == 'e' || c == 'E') {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		ok = s.digitRun(false)
	}
	if !ok {
		s.fail("expected a number")
		return 0
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.fail("number out of range")
		return 0
	}
	s.ws()
	return f
}

// digitRun consumes a non-empty run of digits; with strict set it also
// refuses a leading zero, as JSON does in a number's integer part.
func (s *scanner) digitRun(strict bool) bool {
	start := s.i
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
	}
	n := s.i - start
	return n > 0 && !(strict && n > 1 && s.b[start] == '0')
}

// id scans the key of a tensor_cut or op_strategy entry and the colon after
// it: a tensor or node ID in canonical decimal form ("01" and "+1" would
// alias "1"), sorting strictly after prev — the previous entry's key — in
// decimal-string order. That is the order WriteJSON and encoding/json emit,
// and it is what lets one pass rule out duplicates without a set.
//
//tofu:hotpath
func (s *scanner) id(prev []byte, what string) []byte {
	k, _ := s.str()
	if s.err != nil {
		return nil
	}
	const maxInt = "9223372036854775807"
	ok := len(k) > 0 && len(k) <= len(maxInt) && (k[0] != '0' || len(k) == 1)
	for _, c := range k {
		ok = ok && c >= '0' && c <= '9'
	}
	if ok && len(k) == len(maxInt) && string(k) > maxInt {
		ok = false
	}
	switch {
	case !ok:
		s.failStep("malformed %s ID %q", what, k)
	case prev != nil && bytes.Compare(prev, k) >= 0:
		s.failStep("%s ID %q repeats or is out of order after %q", what, k, prev)
	}
	s.expect(':')
	return k
}

// plan scans the whole input: one plan object and nothing after it.
func (s *scanner) plan() Export {
	var ex Export
	var mask uint
	s.ws()
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		switch k := s.key(); string(k) {
		case "digest":
			s.seen(&mask, kDigest)
			ex.Digest = s.text(s.str())
			if err := ValidateDigest(ex.Digest); err != nil && s.err == nil {
				s.err = err
			}
		case "workers":
			s.seen(&mask, kWorkers)
			ex.Workers = s.int()
		case "steps":
			s.seen(&mask, kSteps)
			ex.Steps = s.steps()
		case "pipeline":
			s.seen(&mask, kPipeline)
			ex.Pipeline = s.pipeline()
		case "degraded":
			s.seen(&mask, kDegraded)
			ex.Degraded = s.bool()
		case "total_comm_bytes":
			s.seen(&mask, kTotal)
			ex.TotalCommBytes = s.float()
		default:
			s.unknown(k)
		}
	}
	if s.err == nil && s.i != len(s.b) {
		s.fail("trailing bytes after the plan")
	}
	return ex
}

func (s *scanner) steps() []StepExport {
	if s.null() {
		return nil
	}
	steps := []StepExport{}
	s.expect('[')
	for first := true; s.more(&first, ']'); {
		s.step = len(steps)
		steps = append(steps, s.oneStep())
	}
	return steps
}

func (s *scanner) oneStep() StepExport {
	var st StepExport
	var mask uint
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		switch k := s.key(); string(k) {
		case "ways":
			s.seen(&mask, kWays)
			st.Ways = s.int()
		case "multiplier":
			s.seen(&mask, kMultiplier)
			st.Multiplier = s.int()
		case "comm_bytes":
			s.seen(&mask, kComm)
			st.CommBytes = s.float()
		case "level":
			s.seen(&mask, kLevel)
			st.Level = s.narrow()
		case "stage":
			s.seen(&mask, kStage)
			st.Stage = s.narrow()
		case "tensor_cut":
			s.seen(&mask, kTensorCut)
			st.TensorCut = s.cuts()
		case "op_strategy":
			s.seen(&mask, kOpStrategy)
			st.OpStrategy = s.strategies()
		default:
			s.unknown(k)
		}
	}
	return st
}

// cuts scans a tensor_cut object. It returns the map only when the scanner
// is building maps; either way every entry is checked.
//
//tofu:hotpath
func (s *scanner) cuts() map[string]int {
	if s.null() {
		return nil
	}
	var m map[string]int
	if s.full {
		m = make(map[string]int, s.nCut)
	}
	var prev []byte
	n := 0
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		for next := true; next; n++ {
			k, d, ok := s.cutEntry(prev)
			if !ok {
				k = s.id(prev, "tensor")
				d = s.narrow()
				if d < 0 {
					s.failStep("tensor %s: invalid cut dim %d", k, d)
				}
			}
			if m != nil && s.err == nil {
				m[string(k)] = d
			}
			prev = k
			next = s.entrySep()
		}
	}
	s.nCut = n
	return m
}

// strategies scans an op_strategy object, like cuts.
//
//tofu:hotpath
func (s *scanner) strategies() map[string]strat {
	if s.null() {
		return nil
	}
	var m map[string]strat
	if s.full {
		m = make(map[string]strat, s.nStrat)
	}
	var prev []byte
	n := 0
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		for next := true; next; n++ {
			k, st, ok := s.strategyEntry(prev)
			if !ok {
				k = s.id(prev, "node")
				st = s.strategy(k)
			}
			if m != nil && s.err == nil {
				m[string(k)] = st
			}
			prev = k
			next = s.entrySep()
		}
	}
	s.nStrat = n
	return m
}

// The entry fast path. cuts and strategies first match each entry against
// the exact bytes WriteJSON writes for it — a fixed run of key, colon and
// indentation is one comparison, not a token at a time — and make, in the
// same step, every check the token scanner makes on that entry: a canonical
// ID sorting after the previous one, the dim range, a known kind, a plain
// non-empty axis. A match consumes the entry and the whitespace after it,
// exactly as the token scanner would, and yields the same values. At the
// first byte that differs the fast path returns false with s.i unmoved, and
// the token scanner takes the entry from its first byte: it stays the only
// grammar and the only source of error messages (DESIGN.md, "Plan codec").
const (
	fastOutput = "{\n          \"kind\": \"output\",\n          \"axis\": \""
	fastReduce = "{\n          \"kind\": \"reduce\",\n          \"axis\": \""
	fastDim    = ",\n          \"dim\": "
	fastClose  = "\n        }"
)

// cutEntry is the fast path for one tensor_cut entry: `"<id>": <dim>`, the
// dim followed by the ',' or newline WriteJSON writes after it.
//
//tofu:hotpath
func (s *scanner) cutEntry(prev []byte) (k []byte, d int, ok bool) {
	b := s.b
	k, j := fastID(b, s.i, prev)
	if k == nil {
		return nil, 0, false
	}
	if d, j = fastUint(b, j); j < 0 || j >= len(b) || (b[j] != ',' && b[j] != '\n') {
		return nil, 0, false
	}
	s.i = j
	s.ws()
	return k, d, true
}

// strategyEntry is the fast path for one op_strategy entry: `"<id>": ` and
// one of the three objects WriteJSON writes — an output split without dim
// (dim 0) or with a non-negative one, a reduction with its dim (-1). Both
// kinds are six letters, so one length covers both templates. Only a
// scanner building maps copies the axis out.
//
//tofu:hotpath
func (s *scanner) strategyEntry(prev []byte) (k []byte, st strat, ok bool) {
	b := s.b
	k, j := fastID(b, s.i, prev)
	if k == nil || len(b)-j < len(fastOutput) {
		return nil, st, false
	}
	switch string(b[j : j+len(fastOutput)]) {
	case fastOutput:
		st.Kind = "output"
	case fastReduce:
		st.Kind = "reduce"
	default:
		return nil, st, false
	}
	j += len(fastOutput)
	a := j
	for ; j < len(b) && b[j] != '"'; j++ {
		// Printable ASCII without escapes: the bytes str calls plain.
		if c := b[j]; c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, st, false
		}
	}
	axis := b[a:j]
	if len(axis) == 0 || j == len(b) {
		return nil, st, false
	}
	j++
	if t := b[j:]; len(t) >= len(fastDim) && string(t[:len(fastDim)]) == fastDim {
		j += len(fastDim)
		neg := j < len(b) && b[j] == '-'
		if neg {
			j++
		}
		if st.Dim, j = fastUint(b, j); j < 0 {
			return nil, st, false
		}
		if neg {
			st.Dim = -st.Dim
		}
		if st.Kind == "output" && st.Dim < 0 {
			return nil, st, false
		}
	}
	if t := b[j:]; len(t) < len(fastClose) || string(t[:len(fastClose)]) != fastClose {
		return nil, st, false
	}
	if s.full {
		st.Axis = string(axis)
	}
	s.i = j + len(fastClose)
	s.ws()
	return k, st, true
}

// entrySep is more's comma case for the separator WriteJSON writes between
// two entries, ",\n        ": it consumes that and the whitespace after it
// and reports whether it did, matching the indentation in one comparison.
// Anything else — the closing brace, other whitespace, an error — is left
// to more.
//
//tofu:hotpath
func (s *scanner) entrySep() bool {
	const sep = ",\n        "
	if t := s.b[s.i:]; s.err != nil || len(t) < len(sep) || string(t[:len(sep)]) != sep {
		return false
	}
	s.i += len(sep)
	s.ws()
	return true
}

// fastID matches `"<id>": ` at b[i:] for a canonical ID of at most 18
// digits (so it is below MaxInt64) sorting strictly after prev in
// decimal-string order, as id requires. It returns the ID's bytes and the
// offset after the colon's space, or nil.
//
//tofu:hotpath
func fastID(b []byte, i int, prev []byte) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0
	}
	i++
	j := i
	for end := min(len(b), i+18); j < end && b[j]-'0' <= 9; j++ {
	}
	// An empty ID sorts after nothing, so k[0] exists past the order check.
	k := b[i:j]
	if !sortsAfter(k, prev) || (k[0] == '0' && len(k) > 1) || len(b)-j < 3 || string(b[j:j+3]) != "\": " {
		return nil, 0
	}
	return k, j + 3
}

// sortsAfter is bytes.Compare(prev, k) < 0, inline: IDs are a few bytes, and
// consecutive ones usually differ in the first few.
//
//tofu:hotpath
func sortsAfter(k, prev []byte) bool {
	for i := 0; i < len(prev) && i < len(k); i++ {
		if prev[i] != k[i] {
			return prev[i] < k[i]
		}
	}
	return len(prev) < len(k)
}

// fastUint matches a non-negative integer of at most 9 digits (so it fits
// any int) without a leading zero at b[i:], and returns it and the offset
// after it, or -1 for that offset. The caller matches the byte that follows
// against WriteJSON's bytes, which rules out a tenth digit, a fraction or
// an exponent.
//
//tofu:hotpath
func fastUint(b []byte, i int) (int, int) {
	if i >= len(b) || b[i]-'0' > 9 {
		return 0, -1
	}
	if b[i] == '0' {
		return 0, i + 1
	}
	n, j := 0, i
	for end := min(len(b), i+9); j < end && b[j]-'0' <= 9; j++ {
		n = n*10 + int(b[j]-'0')
	}
	return n, j
}

// strategy scans one node's strategy object and audits it: a known kind, a
// non-negative output dimension (reductions do not use dim), an axis.
//
//tofu:hotpath
func (s *scanner) strategy(node []byte) strat {
	var st strat
	var mask uint
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		switch k := s.key(); string(k) {
		case "kind":
			s.seen(&mask, kKind)
			switch raw, _ := s.str(); string(raw) {
			case "output":
				st.Kind = "output"
			case "reduce":
				st.Kind = "reduce"
			default:
				s.failStep("node %s: unknown strategy kind %q", node, raw)
			}
		case "axis":
			s.seen(&mask, kAxis)
			st.Axis = s.text(s.str())
		case "dim":
			s.seen(&mask, kDim)
			st.Dim = s.narrow()
		default:
			s.unknown(k)
		}
	}
	switch {
	case s.err != nil:
	case st.Kind == "":
		s.failStep("node %s: missing strategy kind", node)
	case st.Kind == "output" && st.Dim < 0:
		s.failStep("node %s: invalid output dim %d", node, st.Dim)
	case st.Axis == "":
		s.failStep("node %s: missing strategy axis", node)
	}
	return st
}

func (s *scanner) pipeline() *PipelineInfo {
	pl := &PipelineInfo{}
	var mask uint
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		switch k := s.key(); string(k) {
		case "level":
			s.seen(&mask, kLevel)
			pl.Level = s.narrow()
		case "stages":
			s.seen(&mask, kStages)
			if s.null() {
				break
			}
			pl.Stages = []StageInfo{}
			s.expect('[')
			for first := true; s.more(&first, ']'); {
				pl.Stages = append(pl.Stages, s.stage())
			}
		default:
			s.unknown(k)
		}
	}
	return pl
}

func (s *scanner) stage() StageInfo {
	var st StageInfo
	var mask uint
	s.expect('{')
	for first := true; s.more(&first, '}'); {
		switch k := s.key(); string(k) {
		case "groups":
			s.seen(&mask, kGroups)
			s.expect('[')
			st.Groups[0] = s.narrow()
			s.expect(',')
			st.Groups[1] = s.narrow()
			s.expect(']')
		case "workers":
			s.seen(&mask, kWorkers)
			st.Workers = s.int()
		case "handoff_bytes":
			s.seen(&mask, kHandoff)
			st.HandoffBytes = s.float()
		default:
			s.unknown(k)
		}
	}
	return st
}
