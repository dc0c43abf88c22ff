package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping counted once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested counted once", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to parent", []span{{Start: -20, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside parent", []span{{Start: 120, End: 130}}, 100},
		{"unsorted", []span{{Start: 70, End: 80}, {Start: 0, End: 10}}, 80},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBreakdownRoutedOperation checks the layer split of one routed
// lease operation: op → {POST, GET} → router → node.
func TestBreakdownRoutedOperation(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: spanHTTP, Start: 0, End: 300},
		{ID: 3, Parent: 2, Name: spanRouter, Start: 20, End: 280},
		{ID: 4, Parent: 3, Name: spanNode, What: "POST /lease", Start: 50, End: 150, WriteNs: 10},
		{ID: 5, Parent: 1, Name: spanHTTP, Start: 350, End: 1000},
		{ID: 6, Parent: 5, Name: spanRouter, Start: 400, End: 950},
		{ID: 7, Parent: 6, Name: spanNode, What: "GET /stream", Start: 420, End: 900, WriteNs: 200},
	}
	tree := newSpanTree(spans)
	b := tree.breakdown(spans[0])
	want := opBreakdown{
		client:     1000,
		node:       100 + 480,
		write:      210,
		routerSelf: (260 - 100) + (550 - 480),
		clientSelf: 1000 - 260 - 550,
	}
	if b != want {
		t.Fatalf("breakdown = %+v, want %+v", b, want)
	}
	if b.node+b.routerSelf+b.clientSelf != b.client {
		t.Errorf("shares of a nested tree do not add up: %+v", b)
	}
	if got := tree.nodeSpans(spans[0], "POST /lease"); len(got) != 1 || got[0].ID != 4 {
		t.Errorf("nodeSpans(POST /lease) = %+v, want span 4", got)
	}
}

// TestBreakdownSingleNode checks a node span directly under the
// client's HTTP span (no router).
func TestBreakdownSingleNode(t *testing.T) {
	spans := []span{
		{ID: 10, Name: spanOp, Start: 100, End: 200},
		{ID: 11, Parent: 10, Name: spanHTTP, Start: 100, End: 200},
		{ID: 12, Parent: 11, Name: spanNode, Start: 110, End: 190, WriteNs: 5},
	}
	b := newSpanTree(spans).breakdown(spans[0])
	want := opBreakdown{client: 100, node: 80, write: 5, clientSelf: 20}
	if b != want {
		t.Fatalf("breakdown = %+v, want %+v", b, want)
	}
}
