package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Server accepts agent connections on a TCP listener and feeds them into
// a Receiver.
type Server struct {
	rc *Receiver
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a receiver; call Serve with a listener.
func NewServer(rc *Receiver) *Server {
	return &Server{rc: rc, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener closes or ctx is
// cancelled. Each connection is handled on its own goroutine.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		<-ctx.Done()
		_ = ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.track(conn)
		s.rc.counters.Inc(CtrConnsAccepted)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer s.rc.counters.Inc(CtrConnsClosed)
			if err := s.rc.HandleConn(conn); err != nil {
				// The counter records what the old code dropped silently;
				// the connection is closed and the agent will reconnect.
				s.rc.counters.Inc(CtrConnErrors)
			}
		}()
	}
}

func (s *Server) track(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[c] = struct{}{}
}

func (s *Server) untrack(c net.Conn) {
	_ = c.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// Close shuts the listener and all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
	return nil
}
