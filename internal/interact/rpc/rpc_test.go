package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/transport"
)

func fixture(t *testing.T) (*Server, *Client) {
	t.Helper()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nil)
	cli, err := Dial(transport.NewMem(fabric), "rpc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
		_ = tr.Close()
	})
	return srv, cli
}

func TestCallReply(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	got, err := cli.Call("echo", []byte("hello"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestHandlerError(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("fail", func([]byte) ([]byte, error) { return nil, errors.New("boom") })
	_, err := cli.Call("fail", nil, time.Second)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, cli := fixture(t)
	_, err := cli.Call("nope", nil, time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestTimeout(t *testing.T) {
	srv, cli := fixture(t)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	srv.Handle("slow", func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	_, err := cli.Call("slow", nil, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("id", func(p []byte) ([]byte, error) { return p, nil })
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			got, err := cli.Call("id", []byte(want), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("cross-talk: sent %q got %q", want, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSlowCallDoesNotBlockFastCall(t *testing.T) {
	srv, cli := fixture(t)
	release := make(chan struct{})
	srv.Handle("slow", func([]byte) ([]byte, error) {
		<-release
		return []byte("slow-done"), nil
	})
	srv.Handle("fast", func([]byte) ([]byte, error) { return []byte("fast-done"), nil })

	slow := cli.GoCall("slow", nil, 10*time.Second)
	got, err := cli.Call("fast", nil, 5*time.Second)
	if err != nil || string(got) != "fast-done" {
		t.Fatalf("fast call behind slow call: %q, %v", got, err)
	}
	close(release)
	res, err := slow.Wait()
	if err != nil || string(res.Payload) != "slow-done" {
		t.Fatalf("slow result: %v, %v", res, err)
	}
}

func TestClientClose(t *testing.T) {
	srv, cli := fixture(t)
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	srv.Handle("hang", func([]byte) ([]byte, error) { <-block; return nil, nil })
	done := make(chan error, 1)
	go func() {
		_, err := cli.Call("hang", nil, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = cli.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outstanding call not failed by Close")
	}
	if _, err := cli.Call("x", nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
	_ = cli.Close() // idempotent
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := fixture(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(transport.NewMem(transport.NewFabric()), "nowhere", nil, nil); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
}

func TestHandlerReplacement(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("m", func([]byte) ([]byte, error) { return []byte("v1"), nil })
	srv.Handle("m", func([]byte) ([]byte, error) { return []byte("v2"), nil })
	got, err := cli.Call("m", nil, time.Second)
	if err != nil || string(got) != "v2" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestGoCallPipelined(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	const n = 50
	futs := make([]*endpoint.Future, n)
	for i := range futs {
		futs[i] = cli.GoCall("echo", []byte(fmt.Sprintf("m-%d", i)), 2*time.Second)
	}
	for i, fut := range futs {
		m, err := fut.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("m-%d", i); string(m.Payload) != want {
			t.Fatalf("cross-wired reply %d: %q", i, m.Payload)
		}
	}
}

func TestGoCallRemoteError(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("boom", func(p []byte) ([]byte, error) { return nil, errors.New("kaput") })
	if _, err := cli.GoCall("boom", nil, 2*time.Second).Wait(); err == nil ||
		!strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want remote kaput", err)
	}
}
