// Package wire defines the binary protocol the IPA network service
// speaks: length-prefixed frames carrying a request id (so clients can
// pipeline many requests on one connection and correlate the responses),
// an opcode or status byte, and an op-specific payload.
//
// Frame layout (all integers big-endian):
//
//	uint32  n       length of everything after this field
//	uint64  id      request id, echoed verbatim in the response
//	uint8   kind    opcode (request) or status (response)
//	[]byte  payload op-specific (see the table below)
//
// Request payloads → response payloads (on StatusOK):
//
//	BEGIN        txid u64                         → —
//	COMMIT       txid u64                         → —
//	ABORT        txid u64                         → —
//	INSERT       txid u64, table str, data bytes  → rid
//	READ         table str, rid                   → data bytes
//	UPDATE       txid u64, table str, rid, data   → —
//	UPDATEFIELD  txid u64, table str, rid,
//	             off u32, val bytes               → —
//	DELETE       txid u64, table str, rid         → —
//	SCAN         table str, after rid, want u32   → page
//	STATS        —                                → JSON bytes (server stats document)
//	PING         —                                → —
//	BEGIN_SNAPSHOT txid u64                       → snapshot LSN u64
//	SNAPREAD     txid u64, table str, rid         → data bytes
//	SNAPSCAN     txid u64, table str, after rid,
//	             want u32                         → page
//	HELLO        version u8                       → — (BAD_REQUEST on mismatch)
//
// Replication ops (see internal/repl for payload codecs): REPL_HELLO
// negotiates a shipping cursor, REPL_APPEND carries batched WAL records
// (an empty batch is a heartbeat) and is answered by an OK response
// whose payload starts with the REPL_ACK tag byte, REPL_SNAPSHOT ships
// a full engine image to a follower too far behind the truncated log,
// and VOTE_REQ/VOTE_RESP run leader election. A write sent to a
// follower gets STATUS_REDIRECT with the leader's address so the client
// pool can re-resolve.
//
// A scan is answered a page at a time. A request names the RID to
// resume strictly after (the zero RID: from the start) and the rows it
// still wants (0: all); the reply is one page:
//
//	count u32, count×(rid, data bytes), more u8, [next rid if more = 1]
//
// The rows are the next ones in ascending RID order, at most want of
// them and at most one page budget of bytes (the server's 32 KiB read
// buffer, or less under a lower frame limit). more = 0 says the table
// holds no row past the page; more = 1 gives the RID the next request
// resumes after. A SNAPSCAN resumed under one snapshot transaction
// reads one snapshot across its pages; a SCAN reads each page at its
// own moment, so a row changed between two pages shows in the later
// page's state. A request in any other layout answers BAD_REQUEST.
//
// The snapshot ops require the server's engine to run with MVCC
// enabled; BEGIN_SNAPSHOT pins a read-only snapshot transaction whose
// reads and scans resolve through the version store (stable across the
// whole transaction, never aborted by writer locks). COMMIT/ABORT end
// it like any other transaction.
//
// where `str` is uint16 length + bytes, `bytes` is uint32 length +
// bytes, and `rid` is page u64 + slot u16. Error responses carry the
// status code plus a human-readable message as `bytes`.
//
// Transaction ids are client-chosen handles, scoped to the connection
// and unique among its open transactions. The client picking the id is
// what makes single-round-trip pipelined transactions possible: BEGIN,
// the ops and COMMIT can all be written before any response arrives,
// because every frame already knows the id BEGIN will bind.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes.
const (
	OpBegin byte = iota + 1
	OpCommit
	OpAbort
	OpInsert
	OpRead
	OpUpdate
	OpUpdateField
	OpDelete
	OpScan
	OpStats
	OpPing
	OpBeginSnapshot
	OpSnapshotRead
	OpSnapshotScan
	OpHello      // version byte → — (BAD_REQUEST on mismatch)
	OpReplHello  // node id u64, term u64, from LSN u64 → term u64, start LSN u64
	OpReplAppend // term u64, leader u64, commit LSN u64, epochs, first LSN u64, count u32, count×record
	OpReplAck    // tag byte in responses: term u64, acked LSN u64, appended bytes u64
	OpReplSnap   // term u64, leader u64, snapshot blob → ack
	OpVoteReq    // term u64, candidate u64, last LSN u64
	OpVoteResp   // tag byte in responses: term u64, granted u8
	OpAddField   // tx u64, table, rid, off u32, delta u64: locked server-side +=

	// NumOps is one past the highest opcode: the size of a table indexed
	// by opcode.
	NumOps
)

// ProtoVersion is the protocol revision byte carried by OpHello. Peers
// (clients and replicas alike) send it before anything else; a server
// that sees a different version answers BAD_REQUEST instead of
// misparsing the frames that would follow. Bumped whenever the opcode
// family or a payload layout changes incompatibly:
//
//	1  PR 5 client protocol, PR 10 REPL_* family
//	2  REPL_APPEND: first LSN in the batch header, flag-sectioned
//	   records with the OpPatch field offset (wal.Record.Off)
//	3  SCAN and SNAPSCAN page: resume RID and rows wanted in the
//	   request, the more flag and next RID after the rows
const ProtoVersion byte = 3

// OpName returns the wire name of an opcode (used as the metrics key of
// the server's per-op latency histograms).
func OpName(op byte) string {
	switch op {
	case OpBegin:
		return "BEGIN"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	case OpInsert:
		return "INSERT"
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpUpdateField:
		return "UPDATEFIELD"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpBeginSnapshot:
		return "BEGIN_SNAPSHOT"
	case OpSnapshotRead:
		return "SNAPREAD"
	case OpSnapshotScan:
		return "SNAPSCAN"
	case OpHello:
		return "HELLO"
	case OpReplHello:
		return "REPL_HELLO"
	case OpReplAppend:
		return "REPL_APPEND"
	case OpReplAck:
		return "REPL_ACK"
	case OpReplSnap:
		return "REPL_SNAPSHOT"
	case OpVoteReq:
		return "VOTE_REQ"
	case OpVoteResp:
		return "VOTE_RESP"
	case OpAddField:
		return "ADDFIELD"
	default:
		return fmt.Sprintf("OP(%d)", op)
	}
}

// Response status codes.
const (
	StatusOK           byte = 0
	StatusInternal     byte = 1
	StatusClosed       byte = 2 // server draining / database closed
	StatusBusy         byte = 3 // backpressure admission timed out; transient
	StatusLockConflict byte = 4 // no-wait tuple lock lost; abort and retry the tx
	StatusTxClosed     byte = 5
	StatusTxPoisoned   byte = 6 // an earlier pipelined op of this tx failed; tx aborted
	StatusNoTable      byte = 7
	StatusNoTuple      byte = 8
	StatusBadRequest   byte = 9
	StatusRedirect     byte = 10 // not the leader; payload names who is
)

// Sentinel errors the client maps status codes onto, so callers use
// errors.Is instead of comparing bytes.
var (
	ErrClosed       = errors.New("wire: server closed")
	ErrBusy         = errors.New("wire: server busy")
	ErrLockConflict = errors.New("wire: lock conflict")
	ErrTxClosed     = errors.New("wire: transaction closed")
	ErrTxPoisoned   = errors.New("wire: transaction poisoned by earlier pipelined error")
	ErrNoTable      = errors.New("wire: no such table")
	ErrNoTuple      = errors.New("wire: no such tuple")
	ErrBadRequest   = errors.New("wire: bad request")
	ErrInternal     = errors.New("wire: internal server error")
	ErrNotLeader    = errors.New("wire: not the leader")

	// ErrFrameTooLarge is returned by ReadFrame when the length prefix
	// exceeds the reader's limit (protects both sides from a corrupt or
	// hostile peer allocating unbounded memory).
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
)

// sentinelOf maps a status byte to its sentinel error.
func sentinelOf(code byte) error {
	switch code {
	case StatusClosed:
		return ErrClosed
	case StatusBusy:
		return ErrBusy
	case StatusLockConflict:
		return ErrLockConflict
	case StatusTxClosed:
		return ErrTxClosed
	case StatusTxPoisoned:
		return ErrTxPoisoned
	case StatusNoTable:
		return ErrNoTable
	case StatusNoTuple:
		return ErrNoTuple
	case StatusBadRequest:
		return ErrBadRequest
	case StatusRedirect:
		return ErrNotLeader
	default:
		return ErrInternal
	}
}

// StatusError is an error response decoded from the wire: the status
// code, the server's message, and the sentinel it unwraps to.
type StatusError struct {
	Code    byte
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%v (status %d): %s", sentinelOf(e.Code), e.Code, e.Message)
}

// Unwrap lets errors.Is match the sentinel.
func (e *StatusError) Unwrap() error { return sentinelOf(e.Code) }

// RedirectError is the decoded form of a StatusRedirect response: the
// contacted node is a follower and Leader is the address (possibly "",
// mid-election) clients should retry against. The cluster Pool consumes
// these internally; callers only see one if every redirect hop fails.
type RedirectError struct {
	Leader string
}

func (e *RedirectError) Error() string {
	if e.Leader == "" {
		return "wire: not the leader (no leader known)"
	}
	return fmt.Sprintf("wire: not the leader (leader at %s)", e.Leader)
}

// Unwrap lets errors.Is match ErrNotLeader.
func (e *RedirectError) Unwrap() error { return ErrNotLeader }

// IsTransient reports whether the error is worth an automatic bounded
// retry on the same connection: only backpressure admission timeouts
// qualify. Redirects are handled one level up (the cluster Pool
// re-resolves the leader and replays on a fresh connection), and lock
// conflicts are application-level aborts (retry the whole transaction,
// not the request); everything else is terminal for the request.
func IsTransient(err error) bool { return errors.Is(err, ErrBusy) }

// RID is the network form of a record id.
type RID struct {
	Page uint64
	Slot uint16
}

// MaxFrame is the default frame size limit: generous enough for a
// snapshot install or a large REPL_APPEND batch, small enough to bound a
// bad peer.
const MaxFrame = 64 << 20

// HeaderLen is the size of a frame header: u32 length + u64 id + u8
// kind. It is also the size of the smallest frame.
const HeaderLen = 4 + 8 + 1

// Frame is one decoded protocol frame.
type Frame struct {
	ID      uint64
	Kind    byte // opcode (request) or status (response)
	Payload []byte
}

// WriteFrame encodes and writes one frame. Writers of one connection
// are serialised by a mutex, so a frame is never interleaved with
// another. Into a *bufio.Writer — what every connection in the stack
// writes through — the header is built in the writer's own buffer and
// the payload copied once, with no allocation; any other writer gets
// the frame in a single Write.
func WriteFrame(w io.Writer, id uint64, kind byte, payload []byte) error {
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= HeaderLen {
		if bw.Available() < HeaderLen {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		hdr := bw.AvailableBuffer()
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(8+1+len(payload)))
		hdr = binary.BigEndian.AppendUint64(hdr, id)
		hdr = append(hdr, kind)
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	buf := make([]byte, HeaderLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(8+1+len(payload)))
	binary.BigEndian.PutUint64(buf[4:12], id)
	buf[12] = kind
	copy(buf[13:], payload)
	_, err := w.Write(buf)
	return err
}

// frameSize validates a frame's length prefix (the first 4 bytes of hdr)
// and returns the size of the whole frame on the wire, prefix included.
func frameSize(hdr []byte, maxFrame int) (int, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 9 {
		return 0, fmt.Errorf("%w: frame length %d below header", ErrBadRequest, n)
	}
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	return 4 + n, nil
}

// PeekFrameSize returns the size on the wire (header included) of the
// next frame in br without consuming anything, rejecting frames larger
// than maxFrame (≤ 0 selects MaxFrame). It blocks until br holds a
// whole header; a caller that must not block checks br.Buffered()
// against HeaderLen first. Together with ParseFrame this is the
// in-place read path:
//
//	size, _ := PeekFrameSize(br, max)   // size ≤ br.Size(), or use ReadFrame
//	p, _ := br.Peek(size)
//	f := ParseFrame(p)                  // f.Payload aliases br's buffer
//	...                                 // use f; read nothing else from br
//	br.Discard(size)
func PeekFrameSize(br *bufio.Reader, maxFrame int) (int, error) {
	hdr, err := br.Peek(HeaderLen)
	if err != nil {
		// A stream that ends inside a frame is truncated, not finished.
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return frameSize(hdr, maxFrame)
}

// ParseFrame decodes the whole frame held in p (PeekFrameSize bytes).
// The payload aliases p and is valid only as long as p is.
func ParseFrame(p []byte) Frame {
	return Frame{
		ID:      binary.BigEndian.Uint64(p[4:12]),
		Kind:    p[12],
		Payload: p[HeaderLen:],
	}
}

// ReadFrame reads one frame, rejecting frames larger than maxFrame
// (≤ 0 selects MaxFrame). The payload is the caller's to keep. From a
// *bufio.Reader — what every connection in the stack reads through —
// the header is decoded in the reader's buffer, so the payload is the
// only allocation and an empty payload costs none.
func ReadFrame(r io.Reader, maxFrame int) (Frame, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < HeaderLen {
		return readFrameUnbuffered(r, maxFrame)
	}
	size, err := PeekFrameSize(br, maxFrame)
	if err != nil {
		return Frame{}, err
	}
	hdr, _ := br.Peek(HeaderLen) // PeekFrameSize just showed these bytes
	f := Frame{ID: binary.BigEndian.Uint64(hdr[4:12]), Kind: hdr[12]}
	br.Discard(HeaderLen)
	if size > HeaderLen {
		f.Payload = make([]byte, size-HeaderLen)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

func readFrameUnbuffered(r io.Reader, maxFrame int) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	size, err := frameSize(hdr[:], maxFrame)
	if err != nil {
		return Frame{}, err
	}
	body := make([]byte, size-4)
	if _, err := io.ReadFull(r, body); err != nil {
		// A stream that ends right after a length prefix is truncated too.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{
		ID:      binary.BigEndian.Uint64(body[0:8]),
		Kind:    body[8],
		Payload: body[9:],
	}, nil
}

// Builder appends wire-encoded values to a payload buffer. The zero
// value is an empty builder ready for use.
type Builder struct{ buf []byte }

// NewBuilder returns a builder with the given capacity hint.
func NewBuilder(capacity int) *Builder {
	return &Builder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded payload.
func (b *Builder) Bytes() []byte { return b.buf }

// Reset empties the builder, keeping its buffer for the next payload.
// The previous payload's bytes are overwritten, so Reset only once
// nothing refers to them any more (a frame write copies them).
func (b *Builder) Reset() *Builder {
	b.buf = b.buf[:0]
	return b
}

// Len returns the number of bytes encoded so far.
func (b *Builder) Len() int { return len(b.buf) }

// SetUint32 overwrites the big-endian u32 at off — a count or length
// reserved with Uint32(0) before what it describes was encoded.
func (b *Builder) SetUint32(off int, v uint32) {
	binary.BigEndian.PutUint32(b.buf[off:off+4], v)
}

// Uint64 appends a big-endian u64.
func (b *Builder) Uint64(v uint64) *Builder {
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
	return b
}

// Uint32 appends a big-endian u32.
func (b *Builder) Uint32(v uint32) *Builder {
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
	return b
}

// Byte appends one byte.
func (b *Builder) Byte(v byte) *Builder {
	b.buf = append(b.buf, v)
	return b
}

// Uint16 appends a big-endian u16.
func (b *Builder) Uint16(v uint16) *Builder {
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
	return b
}

// String appends a u16-length-prefixed string.
func (b *Builder) String(s string) *Builder {
	b.Uint16(uint16(len(s)))
	b.buf = append(b.buf, s...)
	return b
}

// Blob appends a u32-length-prefixed byte slice.
func (b *Builder) Blob(p []byte) *Builder {
	b.Uint32(uint32(len(p)))
	b.buf = append(b.buf, p...)
	return b
}

// RID appends a record id.
func (b *Builder) RID(r RID) *Builder {
	return b.Uint64(r.Page).Uint16(r.Slot)
}

// Reader decodes wire-encoded values from a payload buffer. The first
// decode failure sticks: subsequent reads return zero values and Err()
// reports the failure, so call sites chain reads and check once.
// StringView and Blob copy nothing: they alias the payload, which on the
// server lives until the session's handle returns and on the client
// belongs to the caller. What must outlive it is copied (bytes.Clone).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// End returns the first decode error or, if bytes remain past what was
// decoded, an error for them: a payload longer than its layout is
// malformed too.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%w: %d bytes past the end of the payload", ErrBadRequest, len(r.buf)-r.off)
	}
	return r.err
}

// Len returns the number of bytes not yet decoded.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// n < 0 guards 32-bit platforms, where a peer-controlled u32 length
	// >= 2^31 wraps negative through int() and would slip past the
	// bounds check into a panicking slice expression.
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated payload (need %d past offset %d of %d)",
			ErrBadRequest, n, r.off, len(r.buf))
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Uint64 decodes a big-endian u64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Uint32 decodes a big-endian u32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint16 decodes a big-endian u16.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// String decodes a u16-length-prefixed string.
func (r *Reader) String() string {
	return string(r.StringView())
}

// StringView decodes a u16-length-prefixed string without copying it:
// the result aliases the payload, like Blob.
func (r *Reader) StringView() []byte {
	return r.take(int(r.Uint16()))
}

// Blob decodes a u32-length-prefixed byte slice without copying it: the
// result aliases the payload, with its capacity ending where the blob
// does, so an append to it copies instead of writing over the bytes
// that follow. A truncated blob is nil.
func (r *Reader) Blob() []byte {
	return r.take(int(r.Uint32()))
}

// RID decodes a record id.
func (r *Reader) RID() RID {
	return RID{Page: r.Uint64(), Slot: r.Uint16()}
}
