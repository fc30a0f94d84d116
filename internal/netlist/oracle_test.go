package netlist

// The parser this package had before Parse became one pass with an in-place
// tokenizer, kept verbatim as the oracle of the differential tests in
// parse_diff_test.go. It shares parseControl and parseSource with the live
// parser (neither changed); the line joiner, the element-card tokenizer
// (ToLower + strings.Fields on a copy of every line) and the numeric literal
// parser are the old ones.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/matex-sim/matex/internal/circuit"
)

// oracleParse is Parse as it stood before the one-pass rewrite.
func oracleParse(r io.Reader) (*Deck, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)

	// Join continuation lines ("+" prefix) into logical lines.
	var logical []string
	var lineNums []int
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "+") {
			if len(logical) == 0 {
				return nil, fmt.Errorf("netlist: line %d: continuation with no previous line", ln)
			}
			logical[len(logical)-1] += " " + strings.TrimSpace(line[1:])
			continue
		}
		logical = append(logical, strings.TrimSpace(line))
		lineNums = append(lineNums, ln)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}

	deck := &Deck{Circuit: circuit.New("")}
	for i, line := range logical {
		if err := oracleParseLine(deck, line, i == 0); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNums[i], err)
		}
	}
	return deck, nil
}

func oracleParseLine(deck *Deck, line string, first bool) error {
	if strings.HasPrefix(line, "*") {
		if first && deck.Circuit.Title == "" {
			deck.Circuit.Title = strings.TrimSpace(line[1:])
		}
		return nil
	}
	lower := strings.ToLower(line)
	if strings.HasPrefix(lower, ".") {
		_ = lower
		return parseControl(deck, line)
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return fmt.Errorf("element card %q has too few fields", line)
	}
	name := fields[0]
	switch strings.ToLower(name[:1]) {
	case "r":
		if len(fields) < 4 {
			return fmt.Errorf("resistor %s needs two nodes and a value", name)
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("resistor %s: %w", name, err)
		}
		return deck.Circuit.AddR(name, fields[1], fields[2], v)
	case "c":
		if len(fields) < 4 {
			return fmt.Errorf("capacitor %s needs two nodes and a value", name)
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("capacitor %s: %w", name, err)
		}
		return deck.Circuit.AddC(name, fields[1], fields[2], v)
	case "l":
		if len(fields) < 4 {
			return fmt.Errorf("inductor %s needs two nodes and a value", name)
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("inductor %s: %w", name, err)
		}
		return deck.Circuit.AddL(name, fields[1], fields[2], v)
	case "v":
		w, err := parseSource(strings.Join(fields[3:], " "))
		if err != nil {
			return fmt.Errorf("voltage source %s: %w", name, err)
		}
		deck.Circuit.AddV(name, fields[1], fields[2], w)
		return nil
	case "i":
		w, err := parseSource(strings.Join(fields[3:], " "))
		if err != nil {
			return fmt.Errorf("current source %s: %w", name, err)
		}
		deck.Circuit.AddI(name, fields[1], fields[2], w)
		return nil
	default:
		return fmt.Errorf("unsupported element %q", name)
	}
}

// oracleParseValue is the old ParseValue: it parses a SPICE numeric literal with optional SI suffix and
// trailing unit letters (e.g. "10ps", "1.5MEG", "2.2u", "0.5").
func oracleParseValue(s string) (float64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("empty numeric literal")
	}
	// Split mantissa from the first alphabetic character that is not part of
	// an exponent.
	cut := len(t)
	for i := 0; i < len(t); i++ {
		ch := t[i]
		if ch >= 'a' && ch <= 'z' {
			if ch == 'e' && i+1 < len(t) && (t[i+1] == '+' || t[i+1] == '-' || (t[i+1] >= '0' && t[i+1] <= '9')) {
				continue // exponent
			}
			cut = i
			break
		}
	}
	mant, rest := t[:cut], t[cut:]
	v, err := strconv.ParseFloat(mant, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric literal %q", s)
	}
	if rest == "" {
		return v, nil
	}
	for _, sfx := range siSuffix {
		if strings.HasPrefix(rest, sfx.suffix) {
			return v * sfx.mult, nil
		}
	}
	// Unknown trailing letters (e.g. "s", "v", "a" units) are ignored per
	// SPICE convention.
	return v, nil
}
