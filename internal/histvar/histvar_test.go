package histvar_test

import (
	"math/rand"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/histvar"
	"countnet/internal/schedule"
	"countnet/internal/topo"
)

// runTracked executes a random timing schedule on g while validating both
// knowledge lemmas on every event.
func runTracked(t *testing.T, g *topo.Graph, n int, c1, c2 int64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	arr := make([]schedule.Arrival, n)
	entry := make([]int64, n)
	for k := range arr {
		arr[k] = schedule.Arrival{
			Time:  int64(rng.Intn(20 * n)),
			Input: rng.Intn(g.InWidth()),
		}
		entry[k] = arr[k].Time
	}
	res, err := schedule.Run(g, arr, schedule.UniformRandom(c1, c2, seed), schedule.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := histvar.New(g, n)
	for _, ev := range res.Events {
		tok, node := int(ev.Tok), topo.NodeID(ev.Node)
		tr.OnEvent(tok, node)
		if err := tr.CheckLemma32(node, ev.T, c1, entry); err != nil {
			t.Error(err)
			return
		}
		if g.KindOf(node) != topo.KindCounter {
			continue
		}
		if err := tr.CheckLemma31(tok, node); err != nil {
			t.Error(err)
			return
		}
		if err := tr.CheckLemma33(node, ev.T, c1, entry); err != nil {
			t.Error(err)
			return
		}
	}
}

func TestLemmas31And32OnBitonic(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		g, err := bitonic.New(w)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 10; seed++ {
			runTracked(t, g, 4*w, 10, 10+seed*5, seed)
		}
	}
}

func TestLemmas31And32OnTree(t *testing.T) {
	for _, w := range []int{2, 8, 16} {
		g, err := dtree.New(w)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 10; seed++ {
			runTracked(t, g, 3*w, 7, 7+seed*7, seed+100)
		}
	}
}

// TestKnowledgeMergesAtSharedNode checks the basic merge semantics: two
// tokens passing the same balancer learn of each other through it.
func TestKnowledgeMergesAtSharedNode(t *testing.T) {
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := histvar.New(g, 2)
	root := g.Input(0).Node
	tr.OnEvent(0, root)
	if tr.NodeKnowledge(root).Count() != 1 {
		t.Fatalf("node knowledge after first event = %d", tr.NodeKnowledge(root).Count())
	}
	if tr.TokenKnowledge(1).Has(0) {
		t.Fatal("token 1 knows token 0 before any shared event")
	}
	tr.OnEvent(1, root)
	if !tr.TokenKnowledge(1).Has(0) {
		t.Error("token 1 should have learned token 0 at the shared balancer")
	}
	if tr.TokenKnowledge(0).Has(1) {
		t.Error("token 0 cannot know token 1: its events happened first")
	}
}

func TestCheckLemma31RejectsNonCounter(t *testing.T) {
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := histvar.New(g, 1)
	if err := tr.CheckLemma31(0, g.Input(0).Node); err == nil {
		t.Error("CheckLemma31 accepted a balancer node")
	}
	if err := tr.CheckLemma33(g.Input(0).Node, 0, 1, nil); err == nil {
		t.Error("CheckLemma33 accepted a balancer node")
	}
}
