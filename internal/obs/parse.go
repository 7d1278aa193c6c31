package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples indexes a parsed scrape for assertions.
type Samples []Sample

// Value returns the first sample matching name and every given
// label=value pair (pairs are "k=v" strings); ok is false when absent.
// Samples may carry more labels than asked for.
func (s Samples) Value(name string, pairs ...string) (float64, bool) {
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		match := true
		for _, p := range pairs {
			k, v, found := strings.Cut(p, "=")
			if !found || smp.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return smp.Value, true
		}
	}
	return 0, false
}

// ParseText parses Prometheus text exposition format (the subset
// Render emits plus anything sample-shaped a real exporter would add).
// Comment and blank lines are skipped; malformed sample lines are an
// error, so a scrape of garbage fails loudly instead of parsing as an
// empty result.
func ParseText(r io.Reader) (Samples, error) {
	var out Samples
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		smp, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	smp := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return smp, fmt.Errorf("no value in %q", line)
	} else {
		smp.Name = rest[:i]
		rest = rest[i:]
	}
	if err := checkName(smp.Name); err != nil {
		return smp, err
	}
	if strings.HasPrefix(rest, "{") {
		body, tail, err := splitLabels(rest)
		if err != nil {
			return smp, err
		}
		if err := parseLabels(body, smp.Labels); err != nil {
			return smp, err
		}
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return smp, fmt.Errorf("no value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return smp, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	smp.Value = v // a second field would be the optional timestamp; ignored
	return smp, nil
}

// splitLabels returns the text between the opening '{' and its closing
// '}' (respecting quoted values) plus the remainder of the line.
func splitLabels(s string) (body, tail string, err error) {
	inQuote, esc := false, false
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case esc:
			esc = false
		case c == '\\':
			esc = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return s[1:i], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", s)
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		body = strings.TrimLeft(body, ", \t")
		if body == "" {
			break
		}
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return fmt.Errorf("label without value in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if err := checkName(name); err != nil {
			return err
		}
		rest := strings.TrimLeft(body[eq+1:], " \t")
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		val, tail, err := unquoteLabel(rest)
		if err != nil {
			return err
		}
		into[name] = val
		body = tail
	}
	return nil
}

// unquoteLabel consumes a leading quoted value, unescaping \\, \" and
// \n, and returns the remainder.
func unquoteLabel(s string) (val, tail string, err error) {
	var sb strings.Builder
	esc := false
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case esc:
			switch c {
			case 'n':
				sb.WriteByte('\n')
			default:
				sb.WriteByte(c)
			}
			esc = false
		case c == '\\':
			esc = true
		case c == '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value in %q", s)
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}
