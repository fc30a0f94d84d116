// Package netlist parses and writes the SPICE subset used by the IBM power
// grid benchmarks: R/C/L/V/I element cards with numeric SI suffixes, PULSE
// and PWL source specifications, comment and continuation lines, and the
// .tran/.print/.end control cards.
package netlist

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/waveform"
)

// Deck is a parsed netlist: the circuit plus its analysis directives.
type Deck struct {
	Circuit *circuit.Circuit
	// TranStep and TranStop come from the .tran card (0 when absent).
	TranStep, TranStop float64
	// Prints lists the node names from .print tran v(...) cards.
	Prints []string
}

// Parse reads a netlist deck: it reads r whole into one string and parses
// that (ParseString). A read error is reported when what was read before it
// parses.
func Parse(r io.Reader) (*Deck, error) {
	var text strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		text.Grow(l.Len())
	}
	_, rerr := io.Copy(&text, r)
	deck, err := ParseString(text.String())
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, fmt.Errorf("netlist: %w", rerr)
	}
	return deck, nil
}

// ParseString parses a netlist deck held in a string, in one pass, stopping
// at the first error, which it reports with its physical line number.
//
// The deck's names are substrings of text: they share it, and hold it,
// rather than being copied card by card.
func ParseString(text string) (*Deck, error) {
	p := parser{deck: Deck{Circuit: circuit.New("")}}
	ckt := p.deck.Circuit
	nr, nc := countRC(text)
	ckt.Resistors, ckt.Capacitors = slices.Grow(ckt.Resistors, nr), slices.Grow(ckt.Capacitors, nc)
	if line, err := p.run(text); err != nil {
		return nil, fmt.Errorf("netlist: line %d: %w", line, err)
	}
	return &p.deck, nil
}

// countRC counts the R and C cards of text, the lines whose first byte past
// ASCII white space is an r or a c, so that a grid deck's element slices
// are allocated once. A card behind other white space is not counted; its
// slice grows by append.
func countRC(text string) (nr, nc int) {
	for len(text) > 0 {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i]-'\t' < 5) {
			i++
		}
		if i < len(line) {
			switch line[i] | 0x20 {
			case 'r':
				nr++
			case 'c':
				nc++
			}
		}
	}
	return nr, nc
}

// parser is the state of one parse.
type parser struct {
	deck     Deck
	seenLine bool // a logical line has been parsed: a comment is no longer the title
	// The last R/C/L value literal and what it parsed to: a grid deck repeats
	// one literal down thousands of consecutive cards.
	lit string
	val float64
	// lineBuf is where continued cards are joined, kept between them.
	lineBuf []byte
}

// run parses text, returning the first error and the physical line it is
// on. A logical line is a card plus its "+" continuation lines: a card that
// has none is parsed where it lies in the text, one that has some is joined
// into a reused buffer first and parsed from a string of its own. Either
// way the names the deck keeps are substrings of the string parsed.
func (p *parser) run(text string) (int, error) {
	var pend []byte // the current logical line, once a continuation joins it
	cur := ""       // the current logical line, while it is one physical line
	pendLn := 0     // its first physical line; 0 before the first card
	flush := func() error {
		if pendLn == 0 {
			return nil
		}
		line := cur
		if pend != nil {
			line = string(pend)
		}
		if err := p.parseLine(line); err != nil {
			return err
		}
		p.seenLine = true
		return nil
	}
	ln := 0
	for len(text) > 0 {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		ln++
		n := len(line)
		for n > 0 && (line[n-1] == ' ' || line[n-1] == '\t' || line[n-1] == '\r') {
			n--
		}
		if line = line[:n]; n == 0 {
			continue
		}
		if line[0] == '+' {
			if pendLn == 0 {
				return ln, errors.New("continuation with no previous line")
			}
			if pend == nil {
				pend = append(p.lineBuf[:0], cur...)
			}
			pend = append(append(pend, ' '), strings.TrimSpace(line[1:])...)
			continue
		}
		if err := flush(); err != nil {
			return pendLn, err
		}
		if pend != nil {
			p.lineBuf, pend = pend, nil
		}
		cur, pendLn = strings.TrimSpace(line), ln
	}
	if err := flush(); err != nil {
		return pendLn, err
	}
	return 0, nil
}

// nextField returns the bounds of the first white-space-delimited field of
// line at or after i (start == end when there is none), splitting exactly
// where strings.Fields does. ASCII bytes are classified inline; only a
// multi-byte rune goes through spaceWidth.
func nextField(line string, i int) (start, end int) {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if c != ' ' && c-'\t' >= 5 {
				break
			}
			i++
		} else if w := spaceWidth(line, i); w > 0 {
			i += w
		} else {
			break
		}
	}
	start = i
	for i < len(line) {
		if c := line[i]; c-'!' <= 0x7f-'!' { // printable ASCII or DEL: a field byte
			i++
			continue
		} else if c < utf8.RuneSelf {
			if c == ' ' || c-'\t' < 5 {
				break
			}
		} else if spaceWidth(line, i) > 0 {
			break
		}
		i++
	}
	return start, i
}

// spaceWidth is the byte width of the white-space rune at line[i], 0 when
// anything else is there.
func spaceWidth(line string, i int) int {
	c := line[i]
	if c < utf8.RuneSelf {
		if c == ' ' || c-'\t' < 5 { // \t \n \v \f \r
			return 1
		}
		return 0
	}
	if r, w := utf8.DecodeRuneInString(line[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// parseLine parses one logical line. Element cards are tokenized in place;
// control cards and source specifications, a few per deck, go through
// strings.Fields.
func (p *parser) parseLine(line string) error {
	ckt := p.deck.Circuit
	if len(line) > 0 && line[0] == '*' {
		if !p.seenLine && ckt.Title == "" {
			ckt.Title = strings.TrimSpace(line[1:])
		}
		return nil
	}
	if len(line) > 0 && line[0] == '.' {
		return parseControl(&p.deck, line)
	}
	n0, n1 := nextField(line, 0)
	a0, a1 := nextField(line, n1)
	b0, b1 := nextField(line, a1)
	if b0 == b1 {
		return fmt.Errorf("element card %q has too few fields", line)
	}
	v0, v1 := nextField(line, b1)
	name, a, b := line[n0:n1], line[a0:a1], line[b0:b1]

	switch line[n0] | 0x20 { // ASCII lower case
	case 'r':
		v, err := p.value("resistor", name, line[v0:v1])
		if err != nil {
			return err
		}
		return ckt.AddR(name, a, b, v)
	case 'c':
		v, err := p.value("capacitor", name, line[v0:v1])
		if err != nil {
			return err
		}
		return ckt.AddC(name, a, b, v)
	case 'l':
		v, err := p.value("inductor", name, line[v0:v1])
		if err != nil {
			return err
		}
		return ckt.AddL(name, a, b, v)
	case 'v':
		w, err := parseSource(sourceSpec(line[v0:]))
		if err != nil {
			return fmt.Errorf("voltage source %s: %w", name, err)
		}
		ckt.AddV(name, a, b, w)
		return nil
	case 'i':
		w, err := parseSource(sourceSpec(line[v0:]))
		if err != nil {
			return fmt.Errorf("current source %s: %w", name, err)
		}
		ckt.AddI(name, a, b, w)
		return nil
	default:
		return fmt.Errorf("unsupported element %q", name)
	}
}

// value parses the value field of an R, C or L card.
func (p *parser) value(kind, name, tok string) (float64, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("%s %s needs two nodes and a value", kind, name)
	}
	if tok == p.lit {
		return p.val, nil
	}
	v, ok := parseValue(tok)
	if !ok {
		_, err := ParseValue(tok)
		return 0, fmt.Errorf("%s %s: %w", kind, name, err)
	}
	p.lit, p.val = tok, v
	return v, nil
}

// sourceSpec is the fields of a source card after its nodes, single-spaced.
func sourceSpec(rest string) string {
	for i := 0; i < len(rest); i++ {
		// rest starts on a field: with lone blanks between fields and none
		// at the end it is already the form wanted.
		if c := rest[i]; c >= utf8.RuneSelf || c < ' ' || c == ' ' && (i+1 == len(rest) || rest[i+1] == ' ') {
			return strings.Join(strings.Fields(rest), " ")
		}
	}
	return rest
}

func parseControl(deck *Deck, line string) error {
	fields := strings.Fields(strings.ToLower(line))
	switch fields[0] {
	case ".end", ".op", ".options", ".option":
		return nil
	case ".tran":
		if len(fields) < 3 {
			return fmt.Errorf(".tran needs a step and stop time")
		}
		step, err := ParseValue(fields[1])
		if err != nil {
			return fmt.Errorf(".tran step: %w", err)
		}
		stop, err := ParseValue(fields[2])
		if err != nil {
			return fmt.Errorf(".tran stop: %w", err)
		}
		deck.TranStep, deck.TranStop = step, stop
		return nil
	case ".print":
		// .print tran v(node) v(node2) ... — keep the original case of node
		// names by re-scanning the raw line.
		raw := strings.Fields(line)
		for _, f := range raw[1:] {
			fl := strings.ToLower(f)
			if strings.HasPrefix(fl, "v(") && strings.HasSuffix(f, ")") {
				deck.Prints = append(deck.Prints, f[2:len(f)-1])
			}
		}
		return nil
	default:
		// Unknown control cards are ignored (the IBM decks carry a few).
		return nil
	}
}

// parseSource parses a source specification: a bare value (DC), "DC v",
// "PULSE(v1 v2 td tr tf pw per)", or "PWL(t1 v1 t2 v2 ...)".
func parseSource(spec string) (waveform.Waveform, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, fmt.Errorf("empty source specification")
	}
	switch {
	case hasPrefixFold(s, "pulse"):
		args, err := parenArgs(s)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("PULSE needs at least v1 v2, got %d args", len(args))
		}
		vals := make([]float64, 7)
		for i := 0; i < len(args) && i < 7; i++ {
			v, err := ParseValue(args[i])
			if err != nil {
				return nil, fmt.Errorf("PULSE arg %d: %w", i+1, err)
			}
			vals[i] = v
		}
		// SPICE order: V1 V2 TD TR TF PW PER.
		p := &waveform.Pulse{
			V1: vals[0], V2: vals[1], Delay: vals[2],
			Rise: vals[3], Fall: vals[4], Width: vals[5], Period: vals[6],
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	case hasPrefixFold(s, "pwl"):
		args, err := parenArgs(s)
		if err != nil {
			return nil, err
		}
		if len(args) == 0 || len(args)%2 != 0 {
			return nil, fmt.Errorf("PWL needs an even number of args, got %d", len(args))
		}
		ts := make([]float64, len(args)/2)
		vs := make([]float64, len(args)/2)
		for i := range ts {
			var err error
			if ts[i], err = ParseValue(args[2*i]); err != nil {
				return nil, fmt.Errorf("PWL time %d: %w", i, err)
			}
			if vs[i], err = ParseValue(args[2*i+1]); err != nil {
				return nil, fmt.Errorf("PWL value %d: %w", i, err)
			}
		}
		return waveform.NewPWL(ts, vs)
	case hasPrefixFold(s, "sin"):
		args, err := parenArgs(s)
		if err != nil {
			return nil, err
		}
		if len(args) < 3 {
			return nil, fmt.Errorf("SIN needs at least vo va freq, got %d args", len(args))
		}
		vals := make([]float64, 5)
		for i := 0; i < len(args) && i < 5; i++ {
			v, err := ParseValue(args[i])
			if err != nil {
				return nil, fmt.Errorf("SIN arg %d: %w", i+1, err)
			}
			vals[i] = v
		}
		w := &waveform.Sin{VO: vals[0], VA: vals[1], Freq: vals[2], Delay: vals[3], Theta: vals[4]}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return w, nil
	case hasPrefixFold(s, "exp"):
		args, err := parenArgs(s)
		if err != nil {
			return nil, err
		}
		if len(args) < 6 {
			return nil, fmt.Errorf("EXP needs v1 v2 td1 tau1 td2 tau2, got %d args", len(args))
		}
		vals := make([]float64, 6)
		for i := 0; i < 6; i++ {
			v, err := ParseValue(args[i])
			if err != nil {
				return nil, fmt.Errorf("EXP arg %d: %w", i+1, err)
			}
			vals[i] = v
		}
		w := &waveform.Exp{V1: vals[0], V2: vals[1], TD1: vals[2], Tau1: vals[3], TD2: vals[4], Tau2: vals[5]}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return w, nil
	case hasPrefixFold(s, "dc"):
		rest := strings.TrimSpace(s[2:])
		v, err := ParseValue(rest)
		if err != nil {
			return nil, fmt.Errorf("DC value: %w", err)
		}
		return waveform.DC(v), nil
	default:
		v, err := ParseValue(strings.Fields(s)[0])
		if err != nil {
			return nil, fmt.Errorf("source value: %w", err)
		}
		return waveform.DC(v), nil
	}
}

// hasPrefixFold reports whether s starts with the lower-case ASCII keyword
// kw in any case: what strings.HasPrefix(strings.ToLower(s), kw) says for
// the source keywords, without lowering s (no rune lowers to one of their
// letters followed by the keyword's next one).
func hasPrefixFold(s, kw string) bool {
	if len(s) < len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if c := s[i]; c != kw[i] && c|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// parenArgs extracts the whitespace/comma separated arguments inside the
// first (...) group, tolerating "PULSE (" spacing and missing parentheses
// ("PULSE 0 1 ..." appears in the wild).
func parenArgs(s string) ([]string, error) {
	open := strings.IndexByte(s, '(')
	var inner string
	if open < 0 {
		// No parentheses: arguments follow the keyword.
		fs := strings.Fields(s)
		return fs[1:], nil
	}
	close := strings.LastIndexByte(s, ')')
	if close < open {
		return nil, fmt.Errorf("unbalanced parentheses in %q", s)
	}
	inner = s[open+1 : close]
	inner = strings.ReplaceAll(inner, ",", " ")
	return strings.Fields(inner), nil
}

// siSuffix maps SPICE magnitude suffixes to multipliers. "meg" must be
// matched before "m".
var siSuffix = []struct {
	suffix string
	mult   float64
}{
	{"meg", 1e6}, {"mil", 25.4e-6},
	{"t", 1e12}, {"g", 1e9}, {"k", 1e3},
	{"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
}

// ParseValue parses a SPICE numeric literal with optional SI suffix and
// trailing unit letters (e.g. "10ps", "1.5MEG", "2.2u", "0.5").
func ParseValue(s string) (float64, error) {
	if v, ok := parseValue(s); ok {
		return v, nil
	}
	if strings.TrimSpace(s) == "" {
		return 0, fmt.Errorf("empty numeric literal")
	}
	return 0, fmt.Errorf("bad numeric literal %q", s)
}

// parseValue is ParseValue without the error value, so that its argument
// does not escape and callers can pass a []byte token without copying it.
// The literal is lower-cased only if it has an upper-case or non-ASCII byte
// (strings.ToLower returns its argument otherwise).
func parseValue(s string) (float64, bool) {
	t := strings.ToLower(strings.TrimSpace(s))
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
	if err != nil { // also the empty literal
		return 0, false
	}
	if rest == "" {
		return v, true
	}
	for _, sfx := range siSuffix {
		if strings.HasPrefix(rest, sfx.suffix) {
			return v * sfx.mult, true
		}
	}
	// Unknown trailing letters (e.g. "s", "v", "a" units) are ignored per
	// SPICE convention.
	return v, true
}
