package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"samnet/internal/cli/server"
	"samnet/internal/service"
)

// startServer runs a server.New-built listener with the given timeouts
// and returns its address.
func startServer(t *testing.T, to server.Timeouts) string {
	t.Helper()
	svc := service.New(service.Config{})
	srv := server.New("127.0.0.1:0", svc.Handler(), to)
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return ln.Addr().String()
}

// TestSlowClientDisconnected is the server-hardening regression test: before
// Read/Write/Idle timeouts were set, a client could open a connection, send a
// partial request, and hold the connection (and its goroutine) forever. Now
// the server must hang up on its own within the configured read timeout.
func TestSlowClientDisconnected(t *testing.T) {
	short := server.Timeouts{
		ReadHeader: 200 * time.Millisecond,
		Read:       300 * time.Millisecond,
		Write:      300 * time.Millisecond,
		Idle:       300 * time.Millisecond,
	}
	for _, tc := range []struct {
		name string
		send string // partial request the client stalls after
	}{
		{"stalled headers", "POST /v1/analyze HTTP/1.1\r\nHost: x\r\n"},
		{"stalled body", "POST /v1/analyze HTTP/1.1\r\nHost: x\r\n" +
			"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"routes\":"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := startServer(t, short)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte(tc.send)); err != nil {
				t.Fatal(err)
			}
			// Stall. The server must close the connection on its own; the
			// deadline below only bounds how long a regression would hang
			// this test, it is far beyond the configured timeouts.
			begin := time.Now()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, err = io.ReadAll(conn)
			if err != nil && !isClosedByPeer(err) {
				t.Fatalf("read after stall: %v (want server-side close)", err)
			}
			if waited := time.Since(begin); waited > 5*time.Second {
				t.Fatalf("server kept a stalled connection for %v", waited)
			}
		})
	}
}

// isClosedByPeer reports whether err is the server resetting the stalled
// connection rather than cleanly closing it — both prove the hang-up.
func isClosedByPeer(err error) bool {
	return strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "closed")
}

// TestHealthyClientUnaffected: the same short-timeout server still answers a
// prompt request, so the hardening cannot break normal traffic.
func TestHealthyClientUnaffected(t *testing.T) {
	addr := startServer(t, server.Timeouts{
		ReadHeader: 200 * time.Millisecond,
		Read:       300 * time.Millisecond,
		Write:      300 * time.Millisecond,
		Idle:       300 * time.Millisecond,
	})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestDefaultTimeoutsSet pins that production servers are built with every
// slow-client knob engaged.
func TestDefaultTimeoutsSet(t *testing.T) {
	srv := server.New(":0", nil, server.DefaultTimeouts)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 ||
		srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts not fully set: %+v", server.DefaultTimeouts)
	}
}
