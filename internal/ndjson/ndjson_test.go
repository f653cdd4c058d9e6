package ndjson

import (
	"bytes"
	"errors"
	"expvar"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestRewriteIndex pins the splice: only the index digits change, every
// other byte passes through.
func TestRewriteIndex(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"index":0,"status":200,"result":{"x":1}}`, `{"index":42,"status":200,"result":{"x":1}}`},
		{`{"index":17,"status":400,"error":"bad"}`, `{"index":42,"status":400,"error":"bad"}`},
	}
	for _, tc := range cases {
		if got := string(RewriteIndex([]byte(tc.in), 42)); got != tc.want {
			t.Errorf("RewriteIndex(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestClassify: a line's kind follows from the prefixes the package writes,
// and only a well-formed {"index":N, prefix makes a result line.
func TestClassify(t *testing.T) {
	cases := []struct {
		line  string
		kind  Kind
		index int
	}{
		{`{"index":0,"status":200,"result":{}}`, Result, 0},
		{`{"index":1234,"status":400,"error":"bad"}`, Result, 1234},
		{string(AppendIndex(nil, 7)) + `"status":200}`, Result, 7},
		{string(BatchTrailer{Items: 2, Completed: 2}.Line()), Trailer, 0},
		{string(JobTrailer{Status: "done", Updates: 3}.Line()), Trailer, 0},
		{`{"generation":3,"evaluations":48,"front_size":1,"points":[]}`, Other, 0},
		{`{"index":,"status":200}`, Other, 0},
		{`{"index":-1,"status":200}`, Other, 0},
		{`{"index":12`, Other, 0},
		{`{"index":1234567890123456789,"status":200}`, Other, 0},
		{``, Other, 0},
	}
	for _, tc := range cases {
		if got := Classify([]byte(tc.line)); got != tc.kind {
			t.Errorf("Classify(%q) = %d, want %d", tc.line, got, tc.kind)
		}
		n, ok := Index([]byte(tc.line))
		if ok != (tc.kind == Result) || n != tc.index {
			t.Errorf("Index(%q) = %d, %v; want %d, %v", tc.line, n, ok, tc.index, tc.kind == Result)
		}
	}
}

// TestWriterExactlyOneTrailer: lines are counted (bytes too, when asked),
// and only the first End writes.
func TestWriterExactlyOneTrailer(t *testing.T) {
	rr := httptest.NewRecorder()
	var count expvar.Int
	sw := Start(rr, &count)
	sw.Line([]byte("{\"index\":0,\"status\":200}\n"))
	sw.Line([]byte("{\"index\":1,\"status\":200}\n"))
	sw.End(BatchTrailer{Items: 2, Completed: sw.Lines()}.Line())
	sw.End(BatchTrailer{Items: 2, Truncated: true, Reason: "late"}.Line())

	if rr.Code != 200 || rr.Header().Get("Content-Type") != ContentType {
		t.Fatalf("response %d %q, want 200 %q", rr.Code, rr.Header().Get("Content-Type"), ContentType)
	}
	if sw.Lines() != 2 {
		t.Errorf("Lines() = %d, want 2 (the trailer is not a line)", sw.Lines())
	}
	want := "{\"index\":0,\"status\":200}\n{\"index\":1,\"status\":200}\n" +
		`{"done":true,"items":2,"completed":2,"truncated":false}` + "\n"
	if got := rr.Body.String(); got != want {
		t.Errorf("body %q, want %q", got, want)
	}
	if count.Value() != int64(len(want)) {
		t.Errorf("byte count %d, want %d", count.Value(), len(want))
	}
	if !rr.Flushed {
		t.Errorf("End did not flush")
	}
}

// TestReaderCompleteLinesOnly: lines of any length come back whole, one
// byte at a time or not, and a last line without its newline never does.
func TestReaderCompleteLinesOnly(t *testing.T) {
	long := `{"index":1,"result":"` + strings.Repeat("x", 200<<10) + `"}` + "\n"
	for _, tc := range []struct {
		name    string
		stream  string
		lines   []string
		wantErr error
	}{
		{"clean end", "a\nb\n", []string{"a\n", "b\n"}, io.EOF},
		{"empty", "", nil, io.EOF},
		{"cut line", "a\nhalf", []string{"a\n"}, io.ErrUnexpectedEOF},
		{"long lines", long + "b\n" + long, []string{long, "b\n", long}, io.EOF},
		{"cut long line", long + long[:len(long)/2], []string{long}, io.ErrUnexpectedEOF},
	} {
		for _, slow := range []bool{false, true} {
			var r io.Reader = strings.NewReader(tc.stream)
			if slow {
				r = iotest.OneByteReader(r)
			}
			rd := NewReader(r)
			var got []string
			var err error
			for {
				var line []byte
				if line, err = rd.Next(); err != nil {
					break
				}
				got = append(got, string(line))
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s (slow=%v): err %v, want %v", tc.name, slow, err, tc.wantErr)
			}
			if len(got) != len(tc.lines) {
				t.Fatalf("%s (slow=%v): %d lines, want %d", tc.name, slow, len(got), len(tc.lines))
			}
			for i := range got {
				if got[i] != tc.lines[i] {
					t.Errorf("%s (slow=%v): line %d differs (len %d, want %d)", tc.name, slow, i, len(got[i]), len(tc.lines[i]))
				}
			}
		}
	}

	// A read error mid-line is reported as is, and the partial line is
	// dropped.
	boom := errors.New("connection reset")
	rd := NewReader(io.MultiReader(strings.NewReader("a\npart"), iotest.ErrReader(boom)))
	if line, err := rd.Next(); err != nil || !bytes.Equal(line, []byte("a\n")) {
		t.Fatalf("first line %q, %v", line, err)
	}
	if line, err := rd.Next(); !errors.Is(err, boom) || line != nil {
		t.Fatalf("after a mid-line error: %q, %v; want nil, %v", line, err, boom)
	}
}
