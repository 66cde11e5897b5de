package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromFamily is one metric family parsed from a Prometheus text exposition:
// its TYPE declaration plus the samples that follow it.
type PromFamily struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples int
}

// promTypes are the metric types the text exposition format (version
// 0.0.4) admits.
var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// ParsePromText strictly parses a Prometheus text-format exposition and
// returns its metric families in order of first appearance. It enforces
// the structural rules a scraper relies on: valid metric and label names,
// parseable float values, TYPE/HELP comments naming a single metric,
// samples grouped under their family, and no duplicate TYPE declarations.
func ParsePromText(r io.Reader) ([]PromFamily, error) {
	var fams []PromFamily
	index := map[string]int{}  // family name -> fams index
	typed := map[string]bool{} // families with an explicit TYPE line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() { //tofu:allow-ctxpoll one line of finite scrape input per iteration
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parsePromComment(line)
			if !ok {
				continue // free-form comment
			}
			if !validPromName(name) {
				return nil, fmt.Errorf("obs: prom line %d: invalid metric name %q", lineNo, name)
			}
			switch kind {
			case "TYPE":
				if !promTypes[rest] {
					return nil, fmt.Errorf("obs: prom line %d: invalid type %q for %s", lineNo, rest, name)
				}
				if typed[name] {
					return nil, fmt.Errorf("obs: prom line %d: duplicate TYPE for %s", lineNo, name)
				}
				typed[name] = true
				if i, ok := index[name]; ok {
					// A preceding HELP line already opened the family.
					if fams[i].Samples > 0 {
						return nil, fmt.Errorf("obs: prom line %d: TYPE for %s after its samples", lineNo, name)
					}
					fams[i].Type = rest
				} else {
					index[name] = len(fams)
					fams = append(fams, PromFamily{Name: name, Type: rest})
				}
			case "HELP":
				if i, ok := index[name]; ok {
					fams[i].Help = rest
				} else {
					index[name] = len(fams)
					fams = append(fams, PromFamily{Name: name, Type: "untyped", Help: rest})
				}
			}
			continue
		}
		name, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
		}
		fam := promFamilyOf(name, index, fams)
		i, ok := index[fam]
		if !ok {
			// An undeclared sample is legal (implicitly untyped).
			i = len(fams)
			index[fam] = i
			fams = append(fams, PromFamily{Name: fam, Type: "untyped"})
		}
		fams[i].Samples++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: prom: %w", err)
	}
	for _, f := range fams {
		if f.Samples == 0 {
			return nil, fmt.Errorf("obs: prom: family %s declared but has no samples", f.Name)
		}
	}
	return fams, nil
}

// parsePromComment splits "# TYPE name type" / "# HELP name docstring".
func parsePromComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "TYPE" && fields[1] != "HELP" {
		return "", "", "", false
	}
	return fields[1], fields[2], strings.Join(fields[3:], " "), true
}

// parsePromSample validates one sample line and returns its metric name.
func parsePromSample(line string) (string, error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", fmt.Errorf("sample %q has no value", line)
	}
	name := rest[:i]
	if !validPromName(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", fmt.Errorf("unterminated label set in %q", line)
		}
		if err := validPromLabels(rest[1:end]); err != nil {
			return "", err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("sample %q needs a value and optional timestamp", line)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	return name, nil
}

// validPromLabels checks `k1="v1",k2="v2"` pairs; escapes inside values
// are accepted wholesale (the scraper unescapes, we only check shape).
func validPromLabels(s string) error {
	if s == "" {
		return nil
	}
	for len(s) > 0 { //tofu:allow-ctxpoll consumes at least one byte of s per iteration
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return fmt.Errorf("bad label pair in %q", s)
		}
		k := s[:eq]
		if !validPromName(k) || strings.Contains(k, ":") {
			return fmt.Errorf("invalid label name %q", k)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return fmt.Errorf("label %s value is not quoted", k)
		}
		s = s[1:]
		end := -1
		for j := 0; j < len(s); j++ {
			if s[j] == '\\' {
				j++
				continue
			}
			if s[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated value for label %s", k)
		}
		s = s[end+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if len(s) > 0 {
			return fmt.Errorf("junk after label %s", k)
		}
	}
	return nil
}

// validPromName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// promFamilyOf strips histogram/summary sample suffixes so `x_bucket`,
// `x_sum` and `x_count` group under the `x` family — but only when `x`
// was actually declared as one (a plain counter named `y_count` is its
// own family).
func promFamilyOf(name string, index map[string]int, fams []PromFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok || base == "" {
			continue
		}
		if i, ok := index[base]; ok && (fams[i].Type == "histogram" || fams[i].Type == "summary") {
			return base
		}
	}
	return name
}
