package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := NewBuilder(64).
		Uint64(42).String("tpcb_account").RID(RID{Page: 7, Slot: 3}).
		Blob([]byte("hello")).Bytes()
	if err := WriteFrame(&buf, 99, OpUpdate, payload); err != nil {
		t.Fatal(err)
	}
	// A second frame behind it, to prove framing keeps them apart.
	if err := WriteFrame(&buf, 100, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 99 || f.Kind != OpUpdate {
		t.Fatalf("frame = %+v", f)
	}
	r := NewReader(f.Payload)
	if tx := r.Uint64(); tx != 42 {
		t.Fatalf("txid = %d", tx)
	}
	if s := r.String(); s != "tpcb_account" {
		t.Fatalf("table = %q", s)
	}
	if rid := r.RID(); rid != (RID{Page: 7, Slot: 3}) {
		t.Fatalf("rid = %+v", rid)
	}
	if b := r.Blob(); string(b) != "hello" {
		t.Fatalf("blob = %q", b)
	}
	if r.Err() != nil || r.off != len(r.buf) {
		t.Fatalf("err=%v remaining=%d", r.Err(), len(r.buf)-r.off)
	}
	f2, err := ReadFrame(&buf, 0)
	if err != nil || f2.ID != 100 || f2.Kind != OpPing || len(f2.Payload) != 0 {
		t.Fatalf("second frame = %+v err=%v", f2, err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, OpRead, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 128); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// Truncated stream → io error, not a hang.
	short := bytes.NewReader([]byte{0, 0, 0, 20, 1, 2})
	if _, err := ReadFrame(short, 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Length below the id+kind header is malformed.
	bad := bytes.NewReader([]byte{0, 0, 0, 3, 1, 2, 3})
	if _, err := ReadFrame(bad, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("undersized frame: %v", err)
	}
}

func TestReaderSticksOnError(t *testing.T) {
	r := NewReader([]byte{1, 2}) // too short for a u64
	_ = r.Uint64()
	if r.Err() == nil {
		t.Fatal("no error on truncated read")
	}
	// Subsequent reads stay zero and don't panic.
	if v := r.Uint32(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if !errors.Is(r.Err(), ErrBadRequest) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestStatusErrorSentinels(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{StatusClosed, ErrClosed},
		{StatusBusy, ErrBusy},
		{StatusLockConflict, ErrLockConflict},
		{StatusTxClosed, ErrTxClosed},
		{StatusTxPoisoned, ErrTxPoisoned},
		{StatusNoTable, ErrNoTable},
		{StatusNoTuple, ErrNoTuple},
		{StatusBadRequest, ErrBadRequest},
		{StatusInternal, ErrInternal},
	}
	for _, c := range cases {
		err := error(&StatusError{Code: c.code, Message: "m"})
		if !errors.Is(err, c.want) {
			t.Errorf("status %d does not unwrap to %v", c.code, c.want)
		}
	}
	if !IsTransient(&StatusError{Code: StatusBusy}) {
		t.Error("busy not transient")
	}
	if IsTransient(&StatusError{Code: StatusLockConflict}) {
		t.Error("lock conflict must not be transient")
	}
}

func TestWriteFrameSingleWrite(t *testing.T) {
	// The writer contract is one Write call per frame, so a mutex around
	// WriteFrame is enough to keep concurrent frames from interleaving.
	w := &countingWriter{}
	if err := WriteFrame(w, 7, OpPing, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", w.calls)
	}
}

type countingWriter struct{ calls int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)

// TestReaderHugeLength: a peer-controlled blob length near 2^32 must
// fail the bounds check (on 32-bit platforms it wraps negative through
// int()), not panic in the slice expression.
func TestReaderHugeLength(t *testing.T) {
	p := NewBuilder(8).Uint32(0xFFFF_FFF0).Bytes() // length field only, no body
	r := NewReader(p)
	if b := r.Blob(); b != nil {
		t.Fatalf("Blob = %v, want nil", b)
	}
	if err := r.Err(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Err = %v, want ErrBadRequest", err)
	}
}

// Frames written through a bufio.Writer take the allocation-free path
// (header built in the writer's buffer); they must read back identical
// to the single-Write path, across buffer boundaries — a header that
// does not fit what is left, a payload larger than the whole buffer —
// and the path must not allocate.
func TestWriteFrameBuffered(t *testing.T) {
	var direct, buffered bytes.Buffer
	bw := bufio.NewWriterSize(&buffered, 64)
	sizes := []int{0, 1, 40, 51, 52, 63, 64, 65, 500}
	for i, n := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := WriteFrame(&direct, uint64(i), OpReplAppend, payload); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(bw, uint64(i), OpReplAppend, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), buffered.Bytes()) {
		t.Fatal("buffered frames differ from single-Write frames")
	}
	for i, n := range sizes {
		f, err := ReadFrame(&buffered, 0)
		if err != nil || f.ID != uint64(i) || f.Kind != OpReplAppend || len(f.Payload) != n {
			t.Fatalf("frame %d = %+v, %v", i, f, err)
		}
	}

	big := bufio.NewWriterSize(io.Discard, 32<<10)
	payload := make([]byte, 1000)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(big, 7, OpReplAppend, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("buffered WriteFrame allocates %.1f/frame, want 0", allocs)
	}
}

// Blob aliases the payload: it shares the payload's array, and its
// capacity ends with the blob, so an append to it copies rather than
// writing over the bytes that follow. A zero-length blob is empty, a
// truncated one nil.
func TestBuilderReuseAndBlobAliases(t *testing.T) {
	b := NewBuilder(8)
	at := b.Uint64(1).Len()
	b.Uint32(0).Blob([]byte("abc")).Blob(nil).Uint16(7)
	b.SetUint32(at, 3)
	r := NewReader(b.Bytes())
	if r.Uint64() != 1 || r.Uint32() != 3 {
		t.Fatal("SetUint32 did not patch the reserved count")
	}
	view := r.Blob()
	if string(view) != "abc" || r.Err() != nil {
		t.Fatalf("Blob = %q, %v", view, r.Err())
	}
	if &view[0] != &b.Bytes()[16] {
		t.Error("Blob copied the payload")
	}
	if cap(view) != len(view) {
		t.Errorf("Blob cap = %d, want its length %d", cap(view), len(view))
	}
	before := bytes.Clone(b.Bytes())
	_ = append(view, 0xEE, 0xEE, 0xEE, 0xEE)
	if !bytes.Equal(b.Bytes(), before) {
		t.Errorf("an append to a Blob changed the payload: %x, was %x", b.Bytes(), before)
	}
	if empty := r.Blob(); len(empty) != 0 || cap(empty) != 0 || r.Err() != nil {
		t.Errorf("zero-length Blob = %#v (cap %d), %v; want empty", empty, cap(empty), r.Err())
	}
	if r.Uint16() != 7 || r.End() != nil {
		t.Fatalf("decoding past the blobs: %v", r.Err())
	}
	if b.Reset().Len() != 0 || len(b.Uint16(9).Bytes()) != 2 {
		t.Error("Reset did not empty the builder")
	}
	if NewReader([]byte{0, 0, 0, 9, 1}).Blob() != nil {
		t.Error("truncated Blob returned data")
	}
}

// Through a bufio.Reader the header is decoded in the reader's buffer:
// a frame without payload — most responses — is read without
// allocating, one with a payload allocates just that, and a stream that
// ends or misbehaves gives the errors the unbuffered path gives.
func TestReadFrameBuffered(t *testing.T) {
	encode := func(id uint64, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, id, StatusOK, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	read := func(stream []byte, maxFrame int) (Frame, error) {
		src.Reset(stream)
		br.Reset(src)
		return ReadFrame(br, maxFrame)
	}

	empty, full := encode(5, nil), encode(6, []byte("payload"))
	for _, c := range []struct {
		stream []byte
		allocs float64
	}{{empty, 0}, {full, 1}} {
		var f Frame
		var err error
		if got := testing.AllocsPerRun(100, func() { f, err = read(c.stream, 0) }); got != c.allocs {
			t.Errorf("ReadFrame of a %d-byte payload allocates %.0f times, want %.0f", len(f.Payload), got, c.allocs)
		}
		if err != nil || f.Kind != StatusOK || len(f.Payload) != len(c.stream)-HeaderLen {
			t.Fatalf("frame = %+v, %v", f, err)
		}
	}

	if _, err := read(nil, 0); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	for _, cut := range []int{3, HeaderLen - 1, len(full) - 2} { // in the prefix, the header, the payload
		if _, err := read(full[:cut], 0); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := read(full, 8); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: %v", err)
	}
	if _, err := read(append([]byte{0, 0, 0, 3}, make([]byte, 9)...), 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("undersized frame: %v", err)
	}
}

// The in-place path: PeekFrameSize, Peek, ParseFrame, Discard decode a
// frame where it lies in the reader's buffer, copying nothing.
func TestParseFrameInPlace(t *testing.T) {
	var stream bytes.Buffer
	payload := NewBuilder(32).String("tpcb_branch").Blob([]byte("abc")).Bytes()
	if err := WriteFrame(&stream, 11, OpInsert, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, 12, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&stream)
	size, err := PeekFrameSize(br, 0)
	if err != nil || size != HeaderLen+len(payload) {
		t.Fatalf("PeekFrameSize = %d, %v", size, err)
	}
	p, _ := br.Peek(size)
	f := ParseFrame(p)
	if f.ID != 11 || f.Kind != OpInsert || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame = %+v", f)
	}
	if &f.Payload[0] != &p[HeaderLen] {
		t.Error("ParseFrame copied the payload")
	}
	r := NewReader(f.Payload)
	name := r.StringView()
	if string(name) != "tpcb_branch" || &name[0] != &f.Payload[2] {
		t.Errorf("StringView = %q, or a copy of it", name)
	}
	br.Discard(size)
	if f2, err := ReadFrame(br, 0); err != nil || f2.ID != 12 {
		t.Fatalf("frame after the in-place one = %+v, %v", f2, err)
	}
}
