// Package ndjson is the serving tier's one implementation of its streamed
// responses: newline-delimited JSON, one value per line, ended by exactly
// one trailer line. Two streams speak it:
//
//   - a batch (POST /v1/batch): one result line per item, tagged by the
//     item's index, then a BatchTrailer;
//   - a job stream (GET /v1/jobs/{id}/stream): one line per Pareto front
//     update, then a JobTrailer.
//
// The shard writes both streams and the router relays them. The package
// writes the first bytes of every result line ({"index":N,) and of every
// trailer ({"done":), so a relay can tell a line's kind from its prefix
// without decoding it.
package ndjson

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"strconv"
)

// ContentType is the media type of every stream.
const ContentType = "application/x-ndjson"

const (
	resultPrefix  = `{"index":`
	trailerPrefix = `{"done":`
	// maxIndexDigits bounds the index a result line may carry, so parsing
	// it cannot overflow an int.
	maxIndexDigits = 18
)

// Kind is a line's role in a stream.
type Kind int

const (
	// Other is any line that is neither a result nor a trailer: a job
	// stream's front updates.
	Other Kind = iota
	// Result is a batch result line, starting {"index":N,.
	Result
	// Trailer is a stream's last line, starting {"done":.
	Trailer
)

// Classify returns a line's kind from its prefix.
func Classify(line []byte) Kind {
	switch {
	case indexEnd(line) > 0:
		return Result
	case bytes.HasPrefix(line, []byte(trailerPrefix)):
		return Trailer
	}
	return Other
}

// AppendIndex appends the result-line prefix {"index":n, to dst. Every
// batch result line starts with it.
func AppendIndex(dst []byte, n int) []byte {
	dst = append(dst, resultPrefix...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, ',')
}

// indexEnd returns the offset of the comma that closes a result line's
// prefix, or -1 when line does not start with one.
func indexEnd(line []byte) int {
	if !bytes.HasPrefix(line, []byte(resultPrefix)) {
		return -1
	}
	i := len(resultPrefix)
	for i < len(line) && i-len(resultPrefix) < maxIndexDigits && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	if i == len(resultPrefix) || i == len(line) || line[i] != ',' {
		return -1
	}
	return i
}

// Index returns a result line's index; ok is false when the line is not a
// result line.
func Index(line []byte) (n int, ok bool) {
	end := indexEnd(line)
	if end < 0 {
		return 0, false
	}
	for _, c := range line[len(resultPrefix):end] {
		n = n*10 + int(c-'0')
	}
	return n, true
}

// RewriteIndex returns a result line with its index replaced by n. Only the
// index digits change; every other byte passes through. A line that is not
// a result line is returned unchanged.
func RewriteIndex(line []byte, n int) []byte {
	end := indexEnd(line)
	if end < 0 {
		return line
	}
	out := make([]byte, 0, len(line)+maxIndexDigits)
	out = AppendIndex(out, n)
	return append(out, line[end+1:]...)
}

// BatchTrailer ends every batch stream. Completed counts the result lines
// above it. A truncated batch (client gone, deadline, drain, shard failure)
// still carries every completed line, and Reason names the interruption.
type BatchTrailer struct {
	Done      bool   `json:"done"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
}

// Line serializes the trailer, with Done set, as one line.
func (t BatchTrailer) Line() []byte {
	t.Done = true
	return line(&t)
}

// JobTrailer ends every job stream: the job's terminal status, the number
// of update lines above it, and whether (and why) the search stopped short
// of its last generation.
type JobTrailer struct {
	Done      bool   `json:"done"`
	Status    string `json:"status"`
	Updates   int    `json:"updates"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
}

// Line serializes the trailer, with Done set, as one line.
func (t JobTrailer) Line() []byte {
	t.Done = true
	return line(&t)
}

// line marshals a trailer. Both trailer types hold only strings, ints and
// bools, which always marshal.
func line(v any) []byte {
	b, _ := json.Marshal(v)
	return append(b, '\n')
}

// Writer writes one stream to a client: complete lines, then exactly one
// trailer.
type Writer struct {
	w       io.Writer
	flusher http.Flusher
	count   *expvar.Int
	lines   int
	ended   bool
}

// Start sends a stream's 200 header and returns its writer. count, when
// not nil, accumulates every byte the writer sends.
func Start(w http.ResponseWriter, count *expvar.Int) *Writer {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &Writer{w: w, flusher: f, count: count}
}

// Line writes one complete line, which must end in '\n'. The response
// may hold it back until the next Flush or End.
func (s *Writer) Line(line []byte) {
	s.write(line)
	s.lines++
}

// Lines returns the number of lines written, trailer excluded.
func (s *Writer) Lines() int { return s.lines }

// Flush sends the written lines to the client.
func (s *Writer) Flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

// End writes the trailer line and flushes. Only the first call writes, so
// a stream has exactly one trailer however many exits race to end it.
func (s *Writer) End(trailer []byte) {
	if s.ended {
		return
	}
	s.ended = true
	s.write(trailer)
	s.Flush()
}

func (s *Writer) write(b []byte) {
	s.w.Write(b)
	if s.count != nil {
		s.count.Add(int64(len(b)))
	}
}

// Reader reads a stream one complete line at a time. Lines may be of any
// length: graphs up to model.MaxTasks make result lines of many megabytes.
type Reader struct {
	br  *bufio.Reader
	buf []byte // assembles lines longer than br's buffer
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Buffered reports how many bytes of the stream have arrived but not been
// returned yet. A relay flushes when it is zero: a burst of lines then
// costs one flush, and no line waits on one that has not arrived.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Next returns the next line, '\n' included; it is valid until the next
// call. A last line cut short by the end of the stream or a read error is
// never returned: Next then reports io.ErrUnexpectedEOF, or the read
// error. A stream that ends after a complete line reports io.EOF.
func (r *Reader) Next() ([]byte, error) {
	r.buf = r.buf[:0]
	for {
		frag, err := r.br.ReadSlice('\n')
		switch {
		case err == nil && len(r.buf) == 0:
			return frag, nil
		case err == nil:
			r.buf = append(r.buf, frag...)
			return r.buf, nil
		case err == bufio.ErrBufferFull:
			r.buf = append(r.buf, frag...)
		case err == io.EOF && len(r.buf)+len(frag) > 0:
			return nil, io.ErrUnexpectedEOF
		default:
			return nil, err
		}
	}
}
