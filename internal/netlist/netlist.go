// Package netlist parses and writes the SPICE subset used by the IBM power
// grid benchmarks: R/C/L/V/I element cards with numeric SI suffixes, PULSE
// and PWL source specifications, comment and continuation lines, and the
// .tran/.print/.end control cards.
package netlist

import (
	"bufio"
	"bytes"
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

// Parse reads a netlist deck in one pass: a logical line (a card plus its
// "+" continuation lines) is held in one reused buffer until the next card
// starts, tokenized there, and only what the deck keeps — names, values,
// waveforms — is allocated. A read error later in the input no longer
// outranks a syntax error earlier in it.
func Parse(r io.Reader) (*Deck, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)

	p := parser{deck: &Deck{Circuit: circuit.New("")}}
	var pend []byte // the logical line not yet parsed: more may continue it
	pendLn := 0     // its first physical line; 0 before the first card
	flush := func() error {
		if pendLn == 0 {
			return nil
		}
		if err := p.parseLine(pend); err != nil {
			return fmt.Errorf("netlist: line %d: %w", pendLn, err)
		}
		p.seenLine = true
		return nil
	}
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Bytes()
		n := len(line) // bytes.TrimRight builds its cutset anew on every call
		for n > 0 && (line[n-1] == ' ' || line[n-1] == '\t' || line[n-1] == '\r') {
			n--
		}
		if line = line[:n]; n == 0 {
			continue
		}
		if line[0] == '+' {
			if pendLn == 0 {
				return nil, fmt.Errorf("netlist: line %d: continuation with no previous line", ln)
			}
			pend = append(append(pend, ' '), bytes.TrimSpace(line[1:])...)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		pend, pendLn = append(pend[:0], bytes.TrimSpace(line)...), ln
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	ckt := p.deck.Circuit
	ckt.Resistors, ckt.Capacitors = p.rs.join(ckt.Resistors), p.cs.join(ckt.Capacitors)
	return p.deck, nil
}

// parser is the state of one Parse.
type parser struct {
	deck     *Deck
	seenLine bool // a logical line has been parsed: a comment is no longer the title
	names    nameBlocks
	// The last R/C/L value literal and what it parsed to: a grid deck repeats
	// one literal down thousands of consecutive cards.
	lit []byte
	val float64
	// The two element kinds a grid has by the ten thousand.
	rs chunked[circuit.Resistor]
	cs chunked[circuit.Capacitor]
}

// nextField returns the bounds of the first white-space-delimited field of
// line at or after i (start == end when there is none), splitting exactly
// where strings.Fields does.
func nextField(line []byte, i int) (start, end int) {
	for i < len(line) {
		w := spaceWidth(line, i)
		if w == 0 {
			break
		}
		i += w
	}
	start = i
	for i < len(line) {
		if c := line[i]; c <= ' ' || c >= utf8.RuneSelf { // else: a plain field byte
			if spaceWidth(line, i) > 0 {
				break
			}
		}
		i++
	}
	return start, i
}

// spaceWidth is the byte width of the white-space rune at line[i], 0 when
// anything else is there.
func spaceWidth(line []byte, i int) int {
	c := line[i]
	if c < utf8.RuneSelf {
		if c == ' ' || c-'\t' < 5 { // \t \n \v \f \r
			return 1
		}
		return 0
	}
	if r, w := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// parseLine parses one logical line. Element cards are tokenized in place;
// control cards and source specifications, a few per deck, go through
// strings.
func (p *parser) parseLine(line []byte) error {
	ckt := p.deck.Circuit
	if len(line) > 0 && line[0] == '*' {
		if !p.seenLine && ckt.Title == "" {
			ckt.Title = string(bytes.TrimSpace(line[1:]))
		}
		return nil
	}
	if len(line) > 0 && line[0] == '.' {
		return parseControl(p.deck, string(line))
	}
	n0, n1 := nextField(line, 0)
	a0, a1 := nextField(line, n1)
	b0, b1 := nextField(line, a1)
	if b0 == b1 {
		return fmt.Errorf("element card %q has too few fields", line)
	}
	v0, v1 := nextField(line, b1)
	names := p.names.add(line[n0:b1])
	name, a, b := names[:n1-n0], names[a0-n0:a1-n0], names[b0-n0:]

	switch line[n0] | 0x20 { // ASCII lower case
	case 'r':
		v, err := p.value("resistor", name, line[v0:v1])
		if err != nil {
			return err
		}
		ckt.Resistors = p.rs.room(ckt.Resistors)
		return ckt.AddR(name, a, b, v)
	case 'c':
		v, err := p.value("capacitor", name, line[v0:v1])
		if err != nil {
			return err
		}
		ckt.Capacitors = p.cs.room(ckt.Capacitors)
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
func (p *parser) value(kind, name string, tok []byte) (float64, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("%s %s needs two nodes and a value", kind, name)
	}
	if bytes.Equal(tok, p.lit) {
		return p.val, nil
	}
	v, ok := parseValue(string(tok)) // no copy: parseValue does not keep it
	if !ok {
		_, err := ParseValue(string(tok))
		return 0, fmt.Errorf("%s %s: %w", kind, name, err)
	}
	p.lit, p.val = append(p.lit[:0], tok...), v
	return v, nil
}

// sourceSpec is the fields of a source card after its nodes, single-spaced.
func sourceSpec(rest []byte) string {
	for i, c := range rest {
		// rest starts on a field: with lone blanks between fields and none
		// at the end it is already the form wanted.
		if c >= utf8.RuneSelf || c < ' ' || c == ' ' && (i+1 == len(rest) || rest[i+1] == ' ') {
			return strings.Join(strings.Fields(string(rest)), " ")
		}
	}
	return string(rest)
}

// nameBlocks allocates the element and node names a deck keeps a block at a
// time rather than a string per card. A strings.Builder never rewrites what
// String has returned, so the strings cut from one stay valid while it fills.
type nameBlocks struct {
	b    strings.Builder
	size int // of the current block
}

// add returns a copy of p that lives as long as any string of its block.
func (k *nameBlocks) add(p []byte) string {
	if k.b.Cap()-k.b.Len() < len(p) {
		k.size = min(max(2*k.size, 1<<10), 64<<10)
		k.b = strings.Builder{}
		k.b.Grow(max(k.size, len(p)))
	}
	n := k.b.Len()
	k.b.Write(p)
	return k.b.String()[n:]
}

// chunked grows a slice that is only appended to without re-copying it at
// every growth step: full chunks are set aside and joined once, into a slice
// of exactly the final length. Append alone grows a large slice by a quarter
// and would copy a 36 k-resistor deck a dozen times (a fifth of the parse);
// doubling in place allocates a third more than this and parses 14 % slower.
type chunked[T any] struct{ full [][]T }

// room returns cur if it has room for one more element, else sets it aside
// and returns an empty chunk as large as everything so far (within bounds).
func (c *chunked[T]) room(cur []T) []T {
	if len(cur) < cap(cur) {
		return cur
	}
	if len(cur) > 0 {
		c.full = append(c.full, cur)
	}
	return make([]T, 0, min(max(2*cap(cur), 32), 4096))
}

// join returns every element handed to room, in order, followed by cur.
func (c *chunked[T]) join(cur []T) []T {
	if len(c.full) == 0 {
		return cur
	}
	return slices.Concat(append(c.full, cur)...)
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
	lower := strings.ToLower(s)
	switch {
	case strings.HasPrefix(lower, "pulse"):
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
	case strings.HasPrefix(lower, "pwl"):
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
	case strings.HasPrefix(lower, "sin"):
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
	case strings.HasPrefix(lower, "exp"):
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
	case strings.HasPrefix(lower, "dc"):
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
