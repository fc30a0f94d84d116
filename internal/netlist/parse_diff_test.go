package netlist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/pdn"
)

// diffParse holds Parse to oracleParse on one input: the same deck
// (reflect.DeepEqual) or the same error text.
func diffParse(t *testing.T, label string, data []byte) {
	t.Helper()
	got, gerr := Parse(bytes.NewReader(data))
	want, werr := oracleParse(bytes.NewReader(data))
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Errorf("%s: Parse error %v, oracle error %v", label, gerr, werr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Parse and the oracle disagree:\n got %+v\nwant %+v", label, got, want)
	}
}

func TestParseMatchesOracleOnIBMDecks(t *testing.T) {
	for i := 1; i <= 6; i++ {
		name := "ibmpg" + strconv.Itoa(i) + "t"
		spec, err := pdn.IBMCase(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		deck := &Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop,
			Prints: []string{pdn.NodeName(spec.NX/2, spec.NY/2), pdn.NodeName(1, 1)}}
		var buf bytes.Buffer
		if err := Write(&buf, deck); err != nil {
			t.Fatal(err)
		}
		diffParse(t, name, buf.Bytes())
		// The writer's deck is what the generator built: the parser under
		// test is also right, not merely equal to its predecessor.
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := got.Circuit.NumElements(); n != ckt.NumElements() {
			t.Errorf("%s: parsed %d elements, generator built %d", name, n, ckt.NumElements())
		}
	}
}

func TestParseMatchesOracleOnTestdata(t *testing.T) {
	n := 0
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		diffParse(t, path, data)
		// A fuzz corpus file carries its input as a quoted Go literal: the
		// deck text inside it is the more interesting input.
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
					diffParse(t, path+" (payload)", []byte(s))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no files under testdata")
	}
}

func TestParseMatchesOracleOnHandCases(t *testing.T) {
	cases := map[string]string{
		"mixed case cards":     "* T\nR1 a b 1K\nr2 B 0 2k\nC1 b 0 10F\nc2 a 0 1P\nL1 a c 1N\nl2 c 0 1u\nV1 c 0 DC 1.8\nv2 d 0 1.8V\nI1 b 0 pulse(0 1M 1N 0.1n 0.1N 2n 8n)\ni2 a GND Pwl(0 0 1n 2M)\n.TRAN 10P 10N\n.Print TRAN V(b) v(A)\n.END\n",
		"tabs":                 "* t\nR1\ta\tb\t1.5\n\tC1 \t b\t0 \t1p\t\nV1\ta\t0\tPULSE(0\t1\t1n\t1n\t1n\t2n\t0)\n.tran\t1p\t1n\n.print\ttran\tv(a)\tv(b)\n",
		"crlf":                 "* title\r\nR1 a b 1\r\nC1 b 0 1p\r\n+ \r\nV1 a 0 1\r\n.tran 1p 1n\r\n.print tran v(b)\r\n.end\r\n",
		"continuations":        "* split\n+ title\nR1 a\n+ b\n+   1k\nI1 b 0 PULSE(0 1m\n+ 1n 1n\n+1n 2n 0)\n.tran 1p\n+ 1n\n.print tran\n+ v(a)\n+v(b)\nC1 b 0 1p\n+\n",
		"continuation first":   "+ R1 a b 1\n",
		"blank then cont":      "R1 a b\n\n   \n+ 1k\n\n",
		"continued comment":    "R1 a b 1\n* note\n+ R2 a b 2\nR3 a 0 3\n",
		"print mixed case":     "R1 In OUT 1\nC1 OUT 0 1p\n.PRINT tran V(In) v(OUT) I(R1) v(x v(y))\n.print v(OUT)\n",
		"unknown control":      "R1 a 0 1\n.include foo.sp\n.IC v(a)=1\n.op\n.options reltol=1e-3\n.global vdd\n.\n",
		"no trailing newline":  "R1 a 0 1\nC1 a 0 1p",
		"extra fields":         "R1 a 0 1 tc=0.1 foo\nC1 a 0 1p ic=0\n",
		"leading blanks":       "  * t\n   R1 a 0 1\n \t.tran 1p 1n\n",
		"title later":          "R1 a 0 1\n* not a title\n",
		"empty title":          "*\n* second\nR1 a 0 1\n",
		"unicode space":        "R1 a b 1\nC1 a 0 1p \n R2 a 0 1\n\v\n",
		"unicode case":         "R1 a 0 1K\n",
		"non-utf8":             "R1 \xff\xfe 0 1\n\xc2R2 a 0 1\n",
		"values":               "R1 a 0 1.5MEG\nR2 a 0 1e3\nR3 a 0 1E3k\nR4 a 0 1mil\nR5 a 0 5ohm\nC1 a 0 1.e-12F\nC2 a 0 .5p\nC3 a 0 +1p\n",
		"long literal":         "R1 a 0 0.000000000000000000000000000000000000000000000001234567890123456789e48\n",
		"err few fields":       "* t\nR1 a 0 1\n\nR2 a\n",
		"err two fields cont":  "* t\nR1 a 0 1\nR2\n+ a\n\nR3 a 0 1\n",
		"err no value":         "R1 a 0 1\nR2 a b\n",
		"err no value c":       "R1 a 0 1\n\n\nc2 a b\n",
		"err no value l":       "L2 a b\n",
		"err bad value":        "R1 a 0 1\nC1 a 0 1p\nR2 a 0 abc\n",
		"err bad value c":      "C2 a 0 1..2\n",
		"err bad value l":      "* t\n* u\nl2 a 0 --1\n",
		"err negative":         "R1 a 0 1\nR2 a 0 -1\n",
		"err zero cap":         "C1 a 0 0\n",
		"err zero ind":         "\n\nL1 a 0 0\n",
		"err unsupported":      "R1 a 0 1\nX1 a b sub\n",
		"err unsupported two":  "Q1 a\n",
		"err empty source":     "R1 a 0 1\nV1 a 0\n",
		"err empty isource":    "I1 a 0  \n",
		"source spacing":       "V1 a 0 1\n+\nV2 b 0  DC   2\nI1 a 0 PULSE(0 1m\t1n 1n 1n 2n 0)\nI2 b 0 1m \n+ \nI3 b 0 \v1m\n",
		"err pulse args":       "I1 a 0 PULSE(1)\n",
		"err pulse value":      "R1 a 0 1\nI1 a 0 PULSE(0 x)\n",
		"err pulse parens":     "I1 a 0 PULSE)0 1(\n",
		"err pwl odd":          "I1 a 0 PWL(0 0 1n)\n",
		"err pwl value":        "R1 a 0 1\n+ \nI1 a 0 PWL(0 0 1n q)\n",
		"err dc value":         "V1 a 0 DC\n",
		"err source value":     "V1 a 0 volts\n",
		"err tran fields":      "R1 a 0 1\n.tran 1p\n",
		"err tran step":        "R1 a 0 1\n\n.TRAN x 1n\n",
		"err tran stop":        ".tran 1p y\n",
		"err after continuing": "R1 a 0 1\nR2 a\n+ 0\n+ zz\nR3 a 0 1\n",
		"err on last line":     "R1 a 0 1\nR2 a 0",
		"empty":                "",
		"only blanks":          "\n  \n\t\r\n",
		"title after blanks":   strings.Repeat("\n", 20) + "* t\nR1 a 0 1\nR2 a 0 2\n",
		"comment after blanks": strings.Repeat("\n", 20) + "R1 a 0 1\n* not a title\nR2 a 0 2\n",
		"last tran wins":       ".tran 1p 1n\nR1 a 0 1\nR2 a 0 1\nR3 a 0 1\n.tran 0 0\nR4 a 0 1\nR5 a 0 1\n",
		"prints in order":      ".print tran v(a)\nR1 a 0 1\nR2 a 0 1\n.print tran v(b)\nR3 a 0 1\n.print tran v(c)\n",
		"continuation runs":    "R1 a\n+ 0\n+ 1\nR2 a 0\n\n+ 2\nR3 a\n  0 3\nI1 a 0 PULSE(0 1m\n+ 1n 1n 1n 2n 0)\nR4 a 0 4\n",
		"err after good cards": "R1 a 0 1\nR2 a 0 2\nR3 a 0 3\nR4 a 0 4\nR5 a 0 5\nR6 a 0\nR7 a 0 -7\n",
		"two errors":           "R1 a 0 1\nR2 a 0 -2\nR3 a 0 3\nR4 a 0 4\nR5 a 0 5\nR6 a 0 6\nR7 a 0 -7\n",
	}
	for name, text := range cases {
		diffParse(t, name, []byte(text))
	}
}

// Every error names the first physical line of the logical line it is on.
func TestParseErrorLineNumbers(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"+ x\n", "netlist: line 1: continuation with no previous line"},
		{"\n\n+ x\n", "netlist: line 3: continuation with no previous line"},
		{"* t\nR1 a 0 1\n\nR2 a\n", `netlist: line 4: element card "R2 a" has too few fields`},
		{"R1 a 0 1\nR2 a b\n+\n", "netlist: line 2: resistor R2 needs two nodes and a value"},
		{"c2 a b", "netlist: line 1: capacitor c2 needs two nodes and a value"},
		{"\nL2 a b\n", "netlist: line 2: inductor L2 needs two nodes and a value"},
		{"R1 a 0 1\nR2 a\n+ 0\n+ zz\nR3 a 0 1\n", `netlist: line 2: resistor R2: bad numeric literal "zz"`},
		{"C1 a 0 1..2\n", `netlist: line 1: capacitor C1: bad numeric literal "1..2"`},
		{"R1 a 0 1\n\nl1 a 0 --1\n", `netlist: line 3: inductor l1: bad numeric literal "--1"`},
		{"R1 a 0 1\nR2 a 0 -1\n", "netlist: line 2: circuit: resistor R2 has non-positive resistance -1"},
		{"R1 a 0 1\nX1 a b c\n", `netlist: line 2: unsupported element "X1"`},
		{"R1 a 0 1\nV1 a 0\n", "netlist: line 2: voltage source V1: empty source specification"},
		{"R1 a 0 1\n\n\nI1 a 0 PWL(0 0 1n)\n", "netlist: line 4: current source I1: PWL needs an even number of args, got 3"},
		{"R1 a 0 1\n.tran 1p\n", "netlist: line 2: .tran needs a step and stop time"},
		{"R1 a 0 1\n.tran 1p\n+ y\n.end\n", `netlist: line 2: .tran stop: bad numeric literal "y"`},
		{"R1 a 0 1\nR2 a 0 2\n\nR3 a 0 3\n\nR4 a 0\n+ -4\nR5 a 0 -5\n", "netlist: line 6: circuit: resistor R4 has non-positive resistance -4"},
		{"* t\nR1 a 0 1\nR2 a 0 2\nR3 a 0 3\nR4 a 0 4\n\n\nR5 a 0 x\n", `netlist: line 8: resistor R5: bad numeric literal "x"`},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.text))
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %s", c.text, err, c.want)
		}
	}
}

func TestParseValueMatchesOracle(t *testing.T) {
	for _, s := range []string{
		"", " ", "10", " 10p ", "10PS", "1.5MeG", "1MIL", "2.2U", "1E3", "1e", "1e+", "1E-3K", "e3", "-", "+.5n",
		"1K", "1İ", " 1 ", "0x10", "1_0", "inf", "NaN", "Infinity", "1e400", "1e-400", "1,5", "1k5", "5meg", "5me", "1f", "1t", "1g",
	} {
		got, gerr := ParseValue(s)
		want, werr := oracleParseValue(s)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Errorf("ParseValue(%q) error %v, oracle %v", s, gerr, werr)
		}
		if got != want && (got == got || want == want) { // NaN equals NaN here
			t.Errorf("ParseValue(%q) = %v, oracle %v", s, got, want)
		}
	}
}

// FuzzParseVsOracle is the differential test on arbitrary text.
func FuzzParseVsOracle(f *testing.F) {
	f.Add([]byte("* title\nR1 n1 0 1k\nV1 n1 0 1\n.end\n"))
	f.Add([]byte("* cont\nR1 n1 n2 1\n+ \nV1 n1 0 2\n.PRINT tran V(n1)\n"))
	f.Add([]byte("r1\ta b 1K\r\n+\n i1 a 0 PULSE (0,1m 1n)\n"))
	f.Fuzz(func(t *testing.T, data []byte) { diffParse(t, "fuzz input", data) })
}
