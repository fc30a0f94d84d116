package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
)

// wholeBodyDecodeSpec is decodeSpec as it was before the one-pass netlist
// decode: json.Unmarshal and then the member-name check over the whole
// body. It is the oracle FuzzDecodeSpec holds decodeSpec to.
func wholeBodyDecodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	body, err := readBody(w, r)
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err == nil {
		err = wholeBodyKnownFields(body)
	}
	if err != nil {
		writeError(w, bodyCode(err), fmt.Errorf("decoding job spec: %w", err))
		return spec, false
	}
	return spec, true
}

// wholeBodyKnownFields is knownFields as it was: it walks a body
// json.Unmarshal has accepted.
func wholeBodyKnownFields(body []byte) error {
	depth, name := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
			name = depth == 1
		case '}', ']':
			depth--
		case ',':
			name = depth == 1
		case '"':
			j := i + 1
			for ; body[j] != '"'; j++ {
				if body[j] == '\\' {
					j++
				}
			}
			if name {
				var field string
				if err := json.Unmarshal(body[i:j+1], &field); err != nil {
					return err
				}
				if !specFields[strings.ToLower(field)] {
					return fmt.Errorf("json: unknown field %q", field)
				}
				name = false
			}
			i = j
		}
	}
	return nil
}

// decoded is what a decode gave a submission: the spec and whether it was
// accepted, and the reply written when it was not.
type decoded struct {
	spec  JobSpec
	ok    bool
	code  int
	reply string
}

func decodeWith(decode func(http.ResponseWriter, *http.Request) (JobSpec, bool), body []byte) decoded {
	w := httptest.NewRecorder()
	spec, ok := decode(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	d := decoded{ok: ok, code: w.Code, reply: w.Body.String()}
	if ok {
		d.spec = spec
	}
	return d
}

// ibmDeck renders the named IBM stand-in case at the given scale, with every
// node capacitor set to cnode farads (0: the stock 10 fF) and four probes on
// the grid diagonal.
func ibmDeck(t testing.TB, name string, scale, cnode float64) string {
	t.Helper()
	spec, err := pdn.IBMCase(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	deck := &netlist.Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop}
	for i := 0; i < 4; i++ {
		x := (i + 1) * spec.NX / 5
		y := (i + 1) * spec.NY / 5
		deck.Prints = append(deck.Prints, pdn.NodeName(x, y))
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, deck); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// specBody is the body bench/e2e's serve_stream posts for a deck.
func specBody(tb testing.TB, deck string) []byte {
	body, err := json.Marshal(map[string]string{"netlist": deck})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveStreamBodies are the bodies of the four decks serve_stream rotates,
// with the stock loads (the harness redraws each load's node and amplitude
// per seed, which changes no byte class of the text).
func serveStreamBodies(tb testing.TB) map[string][]byte {
	return map[string][]byte{
		"ibmpg3t":     specBody(tb, ibmDeck(tb, "ibmpg3t", 1, 0)),
		"ibmpg1t":     specBody(tb, ibmDeck(tb, "ibmpg1t", 1, 0)),
		"ibmpg2t":     specBody(tb, ibmDeck(tb, "ibmpg2t", 1, 0)),
		"ibmpg2t_dyn": specBody(tb, ibmDeck(tb, "ibmpg2t", 1, 0.5e-12)),
	}
}

// onePassSeeds are plain specs parseSpec decodes through the one pass.
var onePassSeeds = []string{
	`{"netlist":"* d\nR1 a 0 1\nC1 a 0 1p\nI1 a 0 PULSE(0 1m 0 1n 1n 1n 0)\n.tran 10p 1n\n.end\n"}`,
	` { "netlist" : "x\/y\"\\\b\f\n\r\t z" , "tol" : 1e-6 , "method":"tr", "step":1e-12 } `,
	`{"method":"rmatex","netlist":"a","variants":[{"name":"v","scale":2,"source_scales":{"I1":0.5}}],"ordering":"nd"}`,
	`{"netlist":"a","variants":[{"netlist":"nested"}]}`,
	`{"netlist":"ünïcødé ✓"}`,
	`{"netlist":""}`,
	`{"netlist":"a","inputs":[],"dc":true}`,
}

// wholeBodySeeds are every kind of body parseSpec leaves to the whole-body
// decode.
var wholeBodySeeds = []string{
	// Escapes and bytes the one pass does not decode.
	`{"netlist":"a\u0041b"}`,
	`{"netlist":"ünïcødé ✓ \u00e9"}`,
	`{"netlist":"a\ud83d\ude00b"}`,
	`{"netlist":"a\x"}`,
	"{\"netlist\":\"a\xffb\"}",
	"{\"netlist\":\"a\xed\xa0\x80b\"}",
	"{\"netlist\":\"a\tb\"}",
	"{\"netlist\":\"a\nb\"}",
	// Names that could also be "netlist".
	`{"Netlist":"a"}`,
	`{"NETLIST":"a","netlist":"b"}`,
	`{"netlist":"a","NetList":"b"}`,
	`{"netliſt":"a"}`,
	`{"net\u006cist":"a"}`,
	`{"netlist":"a","me\u0074hod":"tr"}`,
	`{"netlist":"a","netlist":"b"}`,
	// Values that are not a string.
	`{"netlist":null}`,
	`{"netlist":5}`,
	`{"netlist":["a"]}`,
	`{"netlist":{"a":1}}`,
	// Refusals.
	`{"netlist":"a","bogus":1}`,
	`{"netlist":"a","tol":"x"}`,
	`{"netlist":"a"`,
	`{"netlist":"a"}}`,
	`{"netlist":"a"} x`,
	`{"netlist":"a" "b"}`,
	`{"netlist":"abc`,
	`{"netlist" "a"}`,
	`{"netlist":`,
	`{"deck":"abc"}`,
	`["netlist","a"]`,
	`"netlist"`,
	``,
	`{}`,
}

// FuzzDecodeSpec: decodeSpec accepts exactly the bodies the whole-body
// decode accepts, with the same spec, and refuses the rest with the same
// status and the same message.
func FuzzDecodeSpec(f *testing.F) {
	for _, body := range serveStreamBodies(f) {
		f.Add(body)
	}
	for _, s := range append(onePassSeeds, wholeBodySeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want := decodeWith(decodeSpec, body), decodeWith(wholeBodyDecodeSpec, body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %.200q:\n got %+.300v\nwant %+.300v", body, got, want)
		}
	})
}

// TestParseSpecTakesTheOnePass: the serve_stream bodies and the plain seeds
// decode through the one pass, so the fuzz target compares that path, not
// the whole-body decode with itself.
func TestParseSpecTakesTheOnePass(t *testing.T) {
	bodies := serveStreamBodies(t)
	for i, s := range onePassSeeds {
		bodies[fmt.Sprint("seed ", i)] = []byte(s)
	}
	for name, body := range bodies {
		from, to, ok := netlistValue(body)
		if !ok {
			t.Errorf("%s: no plain netlist member found", name)
			continue
		}
		if _, ok := unquoteNetlist(body[from:to]); !ok {
			t.Errorf("%s: the one pass refused the netlist", name)
		}
	}
}

// BenchmarkParseSpec decodes the ibmpg3t serve_stream body (≈ 320 KB) with
// the one pass and with the whole-body decode.
func BenchmarkParseSpec(b *testing.B) {
	body := specBody(b, ibmDeck(b, "ibmpg3t", 1, 0))
	b.Run("one_pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := parseSpec(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole_body", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var spec JobSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				b.Fatal(err)
			}
			if err := knownFields(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
