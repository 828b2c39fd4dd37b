package endpoint

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"ndsm/internal/interop"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// wantShed requires err to be a shed charged to lane.
func wantShed(t *testing.T, what string, err error, lane Lane) {
	t.Helper()
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Lane != lane {
		t.Fatalf("%s: got %v, want a shed of lane %s", what, err, lane)
	}
}

// A caller settles every shed of one topic and lane into one ShedError, and
// keeps at most maxSheds of them: a topic past the bound gets a new error
// that still names it and its lane.
func TestShedErrorsSharedPerTopicAndLane(t *testing.T) {
	c := &Caller{}
	bulk := c.shedError("t", LaneBulk)
	if c.shedError("t", LaneBulk) != bulk || *bulk != (ShedError{Topic: "t", Lane: LaneBulk}) {
		t.Fatalf("a second bulk shed of t settled into a new error or %+v", bulk)
	}
	if ctl := c.shedError("t", LaneControl); ctl == bulk || ctl.Lane != LaneControl {
		t.Fatalf("a control shed of t settled into %+v", ctl)
	}
	for i := 0; i < 3*maxSheds; i++ {
		topic := "t" + strconv.Itoa(i)
		if e := c.shedError(topic, LaneDefault); e.Topic != topic || e.Lane != LaneDefault {
			t.Fatalf("shed of %s settled into %+v", topic, e)
		}
		if len(c.sheds) > maxSheds {
			t.Fatalf("caller keeps %d shed errors, bound %d", len(c.sheds), maxSheds)
		}
	}
	// Futures settle on their own goroutines: sheds of one topic and lane
	// from several at once still share one error.
	c = &Caller{}
	errs := make([]*ShedError, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				errs[g] = c.shedError("hot", LaneBulk)
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs[1:] {
		if e != errs[0] {
			t.Fatal("concurrent sheds of one topic and lane settled into different errors")
		}
	}
}

// Lanes and sheds ride the envelope through every codec: over TCP in binary,
// XML and JSON, a stamped request reaches the server in its lane, an
// unstamped one is admitted and shed as default, and a shed reply comes back
// as a shed charged to the lane that was refused.
func TestLanesAndShedsCrossEveryCodec(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Binary{}, wire.XML{}, wire.JSON{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := transport.NewTCP(codec)
			l, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(l, ServerOptions{Name: "srv", MaxInFlight: 2, Metrics: reg, Lanes: &LaneConfig{
				Quota: map[Lane]int{LaneControl: 1},
			}})
			c, err := NewCaller(tr, s.Addr(), CallerOptions{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan string, 4), make(chan struct{})
			t.Cleanup(func() {
				close(release)
				_ = c.Close()
				_ = s.Close()
				_ = tr.Close()
			})
			hold := func(req *wire.Message) (*wire.Message, error) {
				entered <- stampedLane(req)
				<-release
				return NewReply(nil), nil
			}
			s.Handle("work", hold)
			s.Handle("ctl/stop", hold)

			// Bulk takes the one shared slot; the next bulk request is shed.
			c.Go(&Call{Topic: "work", Lane: LaneBulk})
			if got := <-entered; got != "bulk" {
				t.Fatalf("bulk request reached the handler stamped %q", got)
			}
			_, err = c.Do(&Call{Topic: "work", Lane: LaneBulk})
			wantShed(t, "second bulk request", err, LaneBulk)
			// Unstamped: a default request, which the control reservation
			// does not take.
			_, err = c.Do(&Call{Topic: "ctl/stop"})
			wantShed(t, "unstamped request", err, LaneDefault)
			// Stamped control: admitted on the control reservation.
			c.Go(&Call{Topic: "ctl/stop", Lane: LaneControl})
			if got := <-entered; got != "control" {
				t.Fatalf("control request reached the handler stamped %q", got)
			}
			if n := reg.Counter("srv.lane.control.admitted").Value(); n != 1 {
				t.Fatalf("control admissions %d, want the stamped ctl/stop request", n)
			}
			// Stamped control, with the reservation taken: shed as control.
			_, err = c.Do(&Call{Topic: "work", Lane: LaneControl})
			wantShed(t, "stamped control request", err, LaneControl)
		})
	}
}

// A lane stamp and a shed reply survive an interop transcode (§3.9) through
// every codec and back, and the XML and JSON forms name the shed kind.
func TestLaneAndShedSurviveTranscode(t *testing.T) {
	codecs := []wire.Codec{wire.Binary{}, wire.XML{}, wire.JSON{}, wire.Binary{}}
	transcode := func(m *wire.Message) *wire.Message {
		t.Helper()
		data, err := wire.Binary{}.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(codecs); i++ {
			if data, err = interop.Transcode(data, codecs[i-1], codecs[i]); err != nil {
				t.Fatal(err)
			}
			if name := codecs[i].Name(); m.Kind == wire.KindShed && name != "binary" &&
				!bytes.Contains(data, []byte(`"shed"`)) {
				t.Fatalf("%s form of a shed does not name its kind: %s", name, data)
			}
		}
		out, err := wire.Binary{}.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	req := &wire.Message{ID: 7, Kind: wire.KindRequest, Topic: "work", Priority: LaneControl.priority()}
	if got := laneOf(transcode(req)); got != LaneControl {
		t.Fatalf("transcoded control request reads as %s", got)
	}

	// The shed reply is the one Server.reject sends, taken off a mem link.
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	(&Server{opts: ServerOptions{Name: "srv"}}).reject(req.Clone(), server, LaneBulk, reasonPreempted, 0)
	sent, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	c := &Caller{clock: simtime.Real{}}
	w := c.getWaiter()
	w.topic = "work"
	f := &Future{c: c, w: w}
	f.settleLocked(waitResult{m: transcode(sent)})
	wantShed(t, "transcoded shed reply", f.err, LaneBulk)
}
