package transport

import "sync"

// Served is one listener's lifecycle: its accept loop, every connection it
// accepted or was handed, and every goroutine started for them. Close stops
// accepting, closes every live connection and waits for those goroutines, so
// an owner built on it (a server, a broker, a gateway) keeps only what it does
// with a connection. An owner keeps one as a field and starts it with Serve.
type Served struct {
	l    Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	// conns is every live tracked connection; nil once Close has begun.
	conns map[Conn]struct{}
}

// Serve accepts connections on l until Close, running serve on a goroutine of
// its own for each; the connection is closed when serve returns. Call it once,
// before any other method: it is not a constructor so that serve may reach the
// Served through its owner without racing the owner's assignment.
func (s *Served) Serve(l Listener, serve func(Conn)) {
	s.l, s.done, s.conns = l, make(chan struct{}), make(map[Conn]struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil || !s.Go(func() { serve(conn) }, conn) {
				return
			}
		}
	}()
}

// Go runs f on a goroutine Close waits for, and tracks conns until f returns,
// then closes them; Close closes them too. After Close has begun it starts
// nothing, closes conns and returns false.
func (s *Served) Go(f func(), conns ...Conn) bool {
	s.mu.Lock()
	if s.conns == nil {
		s.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		return false
	}
	for _, c := range conns {
		s.conns[c] = struct{}{}
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		f()
		s.mu.Lock()
		for _, c := range conns {
			delete(s.conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	return true
}

// Done is closed once Close has begun, so goroutines parked on something
// other than a connection can give up instead of holding Close.
func (s *Served) Done() <-chan struct{} { return s.done }

// Close stops accepting, closes every tracked connection and waits for every
// goroutine started through Serve or Go. Every call returns only once they
// have ended.
func (s *Served) Close() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	if conns != nil {
		close(s.done)
		_ = s.l.Close()
	}
	for c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}
