package endpoint

import (
	"testing"

	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func TestParseTopicLanes(t *testing.T) {
	tbl, err := ParseTopicLanes([]byte(`{
		"ctrl/*":        "control",
		"ctrl/debug":    "default",
		"telemetry/*":   "bulk",
		"state/sync":    "bulk"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		topic string
		want  Lane
		hit   bool
	}{
		{"ctrl/actuate", LaneControl, true},
		{"ctrl/debug", LaneDefault, true}, // exact beats prefix
		{"telemetry/report", LaneBulk, true},
		{"state/sync", LaneBulk, true},
		{"state/sync/extra", LaneDefault, false}, // exact is not a prefix
		{"orders/create", LaneDefault, false},
	}
	for _, tc := range cases {
		got, hit := tbl.Lookup(tc.topic)
		if got != tc.want || hit != tc.hit {
			t.Errorf("Lookup(%q) = %v,%v want %v,%v", tc.topic, got, hit, tc.want, tc.hit)
		}
	}
	if tbl.Len() != 4 {
		t.Errorf("Len = %d, want 4", tbl.Len())
	}
}

func TestParseTopicLanesLongestPrefixWins(t *testing.T) {
	tbl, err := ParseTopicLanes([]byte(`{"a/*": "bulk", "a/b/*": "control"}`))
	if err != nil {
		t.Fatal(err)
	}
	if lane, _ := tbl.Lookup("a/b/c"); lane != LaneControl {
		t.Errorf("a/b/c = %v, want control", lane)
	}
	if lane, _ := tbl.Lookup("a/x"); lane != LaneBulk {
		t.Errorf("a/x = %v, want bulk", lane)
	}
}

func TestParseTopicLanesRejectsBadConfig(t *testing.T) {
	for name, data := range map[string]string{
		"bad json":     `{`,
		"unknown lane": `{"a": "express"}`,
		"empty key":    `{"": "bulk"}`,
	} {
		if _, err := ParseTopicLanes([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLaneTableNilAndLookupAllocFree(t *testing.T) {
	var nilTbl *LaneTable
	if _, ok := nilTbl.Lookup("x"); ok {
		t.Error("nil table matched")
	}
	if nilTbl.Len() != 0 {
		t.Error("nil table Len != 0")
	}
	tbl, err := ParseTopicLanes([]byte(`{"hot": "control"}`))
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_, _ = tbl.Lookup("hot")
		_, _ = tbl.Lookup("miss")
	}); avg != 0 {
		t.Errorf("Lookup allocates %.3f allocs/op", avg)
	}
}

// TestCallerAppliesTopicLanes proves the table takes effect at the caller:
// the lane rides the wire header and the server observes it, with explicit
// call lanes still winning.
func TestCallerAppliesTopicLanes(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(chan Lane, 4)
	srv := NewServer(l, ServerOptions{Name: "srv"})
	defer srv.Close()
	h := func(req *wire.Message) (*wire.Message, error) {
		seen <- laneOf(req)
		return &wire.Message{Kind: wire.KindReply}, nil
	}
	srv.Handle("telemetry/report", h)
	srv.Handle("ctrl/actuate", h)
	srv.Handle("plain", h)

	tbl, err := ParseTopicLanes([]byte(`{"telemetry/*": "bulk", "ctrl/*": "control"}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCaller(tr, "srv", CallerOptions{TopicLanes: tbl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	expect := func(topic string, explicit Lane, want Lane) {
		t.Helper()
		call := &Call{Topic: topic, Lane: explicit}
		if _, err := c.Do(call); err != nil {
			t.Fatalf("%s: %v", topic, err)
		}
		if got := <-seen; got != want {
			t.Errorf("%s: server saw lane %v, want %v", topic, got, want)
		}
		if call.Lane != want {
			t.Errorf("%s: call.Lane resolved to %v, want %v", topic, call.Lane, want)
		}
	}
	expect("telemetry/report", LaneDefault, LaneBulk)
	expect("ctrl/actuate", LaneDefault, LaneControl)
	expect("plain", LaneDefault, LaneDefault)
	expect("telemetry/report", LaneControl, LaneControl) // explicit wins
}
