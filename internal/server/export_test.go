package server

import (
	"net"
	"time"

	"ipa/internal/wire"
)

// OccupySlot claims one admission-semaphore slot, letting tests force
// deterministic StatusBusy rejections. The returned func releases it.
func (s *Server) OccupySlot() func() {
	s.inflight <- struct{}{}
	return func() { <-s.inflight }
}

// SetMaxFrame lowers the frame size limit from wire.MaxFrame, so a
// test can reach it with a few KiB. Call it before Serve.
func (s *Server) SetMaxFrame(n int) { s.maxFrame = n }

// TestSession is a session without a network, for measuring what
// serving a request costs on top of the engine call it wraps: requests
// go straight into handle, replies into a connection that discards
// them.
type TestSession struct{ s *session }

func (s *Server) NewTestSession() *TestSession {
	return &TestSession{newSession(s, discardConn{})}
}

func (t *TestSession) Handle(f wire.Frame) { t.s.handle(f) }

// Reply is the payload of the reply the last Handle built in the
// session's reply buffer, valid until the next Handle.
func (t *TestSession) Reply() []byte { return t.s.out.Bytes() }

// ReplyCap is the capacity of the session's reply buffer.
func (t *TestSession) ReplyCap() int { return cap(t.s.out.Bytes()) }

// ScanPageBudget is the most payload a scan page carries under the
// default frame limit.
const ScanPageBudget = readBufSize

type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { select {} }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
