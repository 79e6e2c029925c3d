package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// frameSource reads frames off one byte stream through one of the three
// read paths and says how many bytes of the stream it has taken.
type frameSource struct {
	name     string
	next     func() (Frame, error)
	consumed func() int
}

// frameSources opens the three read paths over copies of one stream:
// peek-and-parse in place (what a server session does), ReadFrame from a
// bufio.Reader whose buffer is smaller than most frames (what a client
// does), and ReadFrame from a plain reader (readFrameUnbuffered).
func frameSources(stream []byte, maxFrame int) []frameSource {
	inPlace := bytes.NewReader(stream)
	brInPlace := bufio.NewReaderSize(inPlace, 2*fuzzMaxFrame) // holds any frame the limit admits
	copying := bytes.NewReader(stream)
	brCopying := bufio.NewReaderSize(copying, 16)
	plain := bytes.NewReader(stream)
	return []frameSource{
		{"in place", func() (Frame, error) {
			size, err := PeekFrameSize(brInPlace, maxFrame)
			if err != nil {
				return Frame{}, err
			}
			p, err := brInPlace.Peek(size)
			if err != nil { // the stream ends inside the frame, as a session's await sees it
				return Frame{}, io.ErrUnexpectedEOF
			}
			f := ParseFrame(p)
			f.Payload = append([]byte(nil), f.Payload...) // valid only until the Discard
			brInPlace.Discard(size)
			return f, nil
		}, func() int { return len(stream) - inPlace.Len() - brInPlace.Buffered() }},
		{"bufio", func() (Frame, error) { return ReadFrame(brCopying, maxFrame) },
			func() int { return len(stream) - copying.Len() - brCopying.Buffered() }},
		{"unbuffered", func() (Frame, error) { return ReadFrame(plain, maxFrame) },
			func() int { return len(stream) - plain.Len() }},
	}
}

// fuzzMaxFrame bounds the frame limit the fuzzer may pick, so that a
// length prefix of 64 MB costs an error, not an allocation.
const fuzzMaxFrame = 4096

// FuzzWireFrame feeds arbitrary bytes to the frame decoders facing the
// network. No path may panic or take a byte beyond the frames it
// returned; all three return the same frames and stop at the same one,
// and they agree on whether the stream ended cleanly between frames
// (io.EOF) or not.
func FuzzWireFrame(f *testing.F) {
	frames := func(payloads ...[]byte) []byte {
		var buf bytes.Buffer
		for i, p := range payloads {
			if err := WriteFrame(&buf, uint64(i+1), OpInsert, p); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	two := frames([]byte("payload"), nil)
	f.Add([]byte(nil), uint16(0))
	f.Add(frames(nil), uint16(0))
	f.Add(two, uint16(100))
	f.Add(two[:len(two)-1], uint16(100))                 // cut in the second header
	f.Add(two[:HeaderLen+3], uint16(100))                // cut in the first payload
	f.Add(two[:4], uint16(100))                          // a length prefix and nothing else
	f.Add(two, uint16(1))                                // first frame over the limit
	f.Add(append([]byte{0, 0, 0, 8}, two...), uint16(0)) // length below the header's
	f.Add(frames(bytes.Repeat([]byte{7}, 300)), uint16(400))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0))

	f.Fuzz(func(t *testing.T, stream []byte, limit uint16) {
		maxFrame := 9 + int(limit)%fuzzMaxFrame
		srcs := frameSources(stream, maxFrame)
		taken := 0 // bytes of the frames returned so far
		for n := 0; ; n++ {
			first, firstErr := srcs[0].next()
			for _, s := range srcs[1:] {
				got, err := s.next()
				if (err == nil) != (firstErr == nil) || (err == io.EOF) != (firstErr == io.EOF) {
					t.Fatalf("frame %d: %s: %v, %s: %v", n, srcs[0].name, firstErr, s.name, err)
				}
				if err == nil && (got.ID != first.ID || got.Kind != first.Kind || !bytes.Equal(got.Payload, first.Payload)) {
					t.Fatalf("frame %d: %s decoded %+v, %s %+v", n, srcs[0].name, first, s.name, got)
				}
			}
			if firstErr != nil {
				if clean := taken == len(stream); (firstErr == io.EOF) != clean {
					t.Fatalf("after %d frames and %d of %d bytes: %v", n, taken, len(stream), firstErr)
				}
				return
			}
			if len(first.Payload) > maxFrame-9 {
				t.Fatalf("frame %d: payload of %d bytes under a limit of %d", n, len(first.Payload), maxFrame)
			}
			taken += HeaderLen + len(first.Payload)
			for _, s := range srcs {
				if got := s.consumed(); got != taken {
					t.Fatalf("after frame %d: %s took %d bytes of the stream, the frames are %d", n, s.name, got, taken)
				}
			}
		}
	})
}
