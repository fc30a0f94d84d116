package netlist

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
)

// frontEndGolden pins what parse → stamp makes of the pgbench decks and of
// decks shaped like the benchmark's workloads (grid_static: ibmpg6t at 1.5×;
// grid_dynamic and dist_loopback: ibmpg5t with 0.5 pF nodes; serve_stream:
// ibmpg1t–3t and ibmpg2t with 0.5 pF nodes), plus ibmpg1t with package
// inductors and a few extra cards: the content and pattern
// fingerprints of C and G, the system's sizes, and a fingerprint of the
// nested-dissection permutation of C + G. The values were taken with the
// bufio.Scanner parser, the all-triplet stamp and the sort.Sort column
// sort; the front end must reproduce them bit for bit.
var frontEndGolden = []struct {
	ibm                  string
	scale, cnode         float64
	pkg                  bool // package R and L in series with every pad
	n, numNodes, inputs  int
	cFP, cPat, gFP, gPat uint64
	nd                   uint64
}{
	{"ibmpg1t", 1, 0, false, 891, 891, 130, 0xb487fb01a842009e, 0xf2abe348f1499571, 0x6d3322c9ffbaf5a, 0xd427170b14e7a6a, 0xab3988cf06950fe3},
	{"ibmpg2t", 1, 0, false, 1584, 1584, 253, 0xff8ce34a2efa7bc5, 0x703ee6c47882d145, 0xe00502d4c8a2d57, 0xd78f4e9170e915e7, 0xa31175c55e2d5989},
	{"ibmpg3t", 1, 0, false, 3564, 3564, 529, 0xf0ecbfec352edfad, 0x4d470224287060d, 0x366d76d0929e15df, 0x10a60f5fa7c8230f, 0x4c381af6c773ded9},
	{"ibmpg4t", 1, 0, false, 4851, 4851, 576, 0xecc1c25081341156, 0x2905f80a95a3fea9, 0x9d8c20298143e4dd, 0xd3e38281b94e82ed, 0xba1b1619d13b3c8c},
	{"ibmpg5t", 1, 0, false, 6336, 6336, 730, 0xe69633b9527c77a5, 0xeb29625aec77b5a5, 0xee0dc3818f2f6acf, 0x699aac64a9e7dddf, 0xaf7707539054377d},
	{"ibmpg6t", 1, 0, false, 8019, 8019, 899, 0x12e89bc9f244fc9e, 0x872f30f91aea4ef1, 0xbf11d3b20ae613ee, 0x20d0ad4d7728dde, 0x2d4221a9cf802367},
	{"ibmpg6t", 1.5, 0, false, 18029, 18029, 2095, 0x894ecb0becc752a6, 0x7d381349c2a7aab9, 0x68645af2ae489217, 0xcb8d84958d121127, 0x67632e2099318337},
	{"ibmpg5t", 1, 0.5e-12, false, 6336, 6336, 730, 0x7ba3c647077b0ba5, 0xeb29625aec77b5a5, 0xee0dc3818f2f6acf, 0x699aac64a9e7dddf, 0xaf7707539054377d},
	{"ibmpg2t", 1, 0.5e-12, false, 1584, 1584, 253, 0xa0b50d2d105895c5, 0x703ee6c47882d145, 0xe00502d4c8a2d57, 0xd78f4e9170e915e7, 0xa31175c55e2d5989},
	{"ibmpg1t", 1, 0, true, 919, 909, 110, 0x1538a4738b44daa2, 0xb39308b1189ca93b, 0x419299c1bb461169, 0x342dc963c4aaee55, 0xf3978bd0dd08a14b},
}

// goldenDeck writes a pgbench deck (four probes on the diagonal, as
// cmd/pgbench places them), with the node capacitance overridden when
// cnode > 0.
func goldenDeck(t testing.TB, ibm string, scale, cnode float64, pkg bool) []byte {
	t.Helper()
	spec, err := pdn.IBMCase(ibm, scale)
	if err != nil {
		t.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	if pkg {
		spec.PkgR, spec.PkgL = 0.05, 50e-12
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	deck := &Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop}
	for i := 1; i <= 4; i++ {
		deck.Prints = append(deck.Prints, pdn.NodeName(i*spec.NX/5, i*spec.NY/5))
	}
	var buf bytes.Buffer
	if err := Write(&buf, deck); err != nil {
		t.Fatal(err)
	}
	if pkg {
		// A source between two grid nodes keeps its current unknown, three
		// parallel branches make three-term off-diagonal sums, and an R and
		// a C from a node to itself, each followed by a branch at that
		// node, stamp their four entries onto one diagonal sum.
		buf.WriteString("Vfloat n1_1_1 n1_2_2 PULSE(0 0.1 1n 1n 1n 5n 20n)\n" +
			"Cx n1_3_3 n1_4_4 1p\nCy n1_4_4 n1_3_3 3p\n" +
			"Rpar1 n1_0_0 n1_1_0 7\nRpar2 n1_1_0 n1_0_0 0.3\n" +
			"Rself n1_5_5 n1_5_5 0.7m\nRnext n1_5_5 0 3\n" +
			"Cself n1_6_6 n1_6_6 0.9n\nCnext n1_6_6 0 3p\n")
	}
	return buf.Bytes()
}

// permFingerprint folds a permutation with FNV-1a.
func permFingerprint(p []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		for w, i := uint64(v), 0; i < 8; i, w = i+1, w>>8 {
			h ^= w & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func TestFrontEndGolden(t *testing.T) {
	for _, g := range frontEndGolden {
		label := fmt.Sprintf("%s×%g cnode=%g", g.ibm, g.scale, g.cnode)
		data := goldenDeck(t, g.ibm, g.scale, g.cnode, g.pkg)
		deck, err := Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sys, err := deck.Build()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		nd := permFingerprint(sparse.NestedDissection(sparse.Add(1, sys.C, 1, sys.G)))
		got := fmt.Sprintf("{%q, %g, %g, %d, %d, %d, %#x, %#x, %#x, %#x, %#x},",
			g.ibm, g.scale, g.cnode, sys.N, sys.NumNodes, len(sys.Inputs),
			sparse.Fingerprint(sys.C), sparse.PatternFingerprint(sys.C),
			sparse.Fingerprint(sys.G), sparse.PatternFingerprint(sys.G), nd)
		want := fmt.Sprintf("{%q, %g, %g, %d, %d, %d, %#x, %#x, %#x, %#x, %#x},",
			g.ibm, g.scale, g.cnode, g.n, g.numNodes, g.inputs, g.cFP, g.cPat, g.gFP, g.gPat, g.nd)
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", label, got, want)
		}
	}
}
