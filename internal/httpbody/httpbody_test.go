package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// payload returns n deterministic bytes.
func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i*7%26)
	}
	return b
}

func request(body io.Reader, contentLength int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/analyze", body)
	r.ContentLength = contentLength
	return r
}

// TestExactLengthReadsWithoutRegrowth: a truthfully declared length is read
// into the one buffer sized from it (one spare byte for the EOF read), even
// when the body arrives in small pieces.
func TestExactLengthReadsWithoutRegrowth(t *testing.T) {
	for _, n := range []int{1, 511, 512, 513, 4096, 731 << 10} {
		want := payload(n)
		got, err := Read(httptest.NewRecorder(), request(iotest.HalfReader(bytes.NewReader(want)), int64(n)), 32<<20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: read %d bytes, want the %d sent", n, len(got), n)
		}
		if cap(got) != n+1 {
			t.Errorf("n=%d: buffer capacity %d, want %d (the presize, never regrown)", n, cap(got), n+1)
		}
	}
}

// TestUnknownLengthReadsFully: a chunked body declares no length; it is
// read whole, growing from io.ReadAll's starting size.
func TestUnknownLengthReadsFully(t *testing.T) {
	want := payload(300 << 10)
	got, err := Read(httptest.NewRecorder(), request(iotest.OneByteReader(bytes.NewReader(want[:1000])), -1), 32<<20)
	if err != nil || !bytes.Equal(got, want[:1000]) {
		t.Fatalf("one-byte reads: %d bytes, err %v; want 1000 bytes", len(got), err)
	}
	got, err = Read(httptest.NewRecorder(), request(iotest.HalfReader(bytes.NewReader(want)), -1), 32<<20)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("half reads: %d bytes, err %v; want %d bytes", len(got), err, len(want))
	}

	// Through a real server, where the client sends it chunked.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != -1 {
			t.Errorf("server saw Content-Length %d, want -1 (chunked)", r.ContentLength)
		}
		b, err := Read(w, r, 32<<20)
		if err != nil || !bytes.Equal(b, want) {
			t.Errorf("chunked body: %d bytes, err %v; want %d bytes", len(b), err, len(want))
		}
	}))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL, "application/json", io.MultiReader(bytes.NewReader(want)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
}

// TestOverdeclaredLengthReadsWhatArrives: a declared length larger than the
// body yields the bytes that arrived, in a buffer no larger than the
// presize.
func TestOverdeclaredLengthReadsWhatArrives(t *testing.T) {
	want := payload(100)
	got, err := Read(httptest.NewRecorder(), request(bytes.NewReader(want), 10_000), 32<<20)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, err %v; want the 100 sent", len(got), err)
	}
	if cap(got) != 10_001 {
		t.Errorf("buffer capacity %d, want the presize 10001", cap(got))
	}
}

// TestPresizeCapped: a declared length above presizeCap (or above the
// limit) allocates no more than the cap up front; a body that really is
// that long grows as it arrives.
func TestPresizeCapped(t *testing.T) {
	small := payload(1000)
	for _, declared := range []int64{presizeCap, presizeCap + 1, 31 << 20, 1 << 62} {
		got, err := Read(httptest.NewRecorder(), request(bytes.NewReader(small), declared), 32<<20)
		if err != nil || !bytes.Equal(got, small) {
			t.Fatalf("declared %d: read %d bytes, err %v; want the 1000 sent", declared, len(got), err)
		}
		if cap(got) > presizeCap {
			t.Errorf("declared %d: buffer capacity %d, want at most the cap %d", declared, cap(got), presizeCap)
		}
	}
	got, err := Read(httptest.NewRecorder(), request(bytes.NewReader(small), 1<<30), 500)
	if err == nil || cap(got) > 501 {
		t.Errorf("declared 1 GiB under a 500-byte limit: capacity %d, err %v; want at most 501 and an error", cap(got), err)
	}

	big := payload(3 << 20)
	got, err = Read(httptest.NewRecorder(), request(iotest.HalfReader(bytes.NewReader(big)), int64(len(big))), 32<<20)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("3 MiB body: read %d bytes, err %v", len(got), err)
	}
}

// TestOverLimitKeepsMaxBytesError: a body past the limit fails exactly as
// http.MaxBytesReader fails it, declared length or not.
func TestOverLimitKeepsMaxBytesError(t *testing.T) {
	body := strings.Repeat("x", 2000)
	for _, declared := range []int64{2000, -1, 100} {
		_, err := Read(httptest.NewRecorder(), request(strings.NewReader(body), declared), 1000)
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) || mbe.Limit != 1000 || err.Error() != "http: request body too large" {
			t.Errorf("declared %d: err %v, want *http.MaxBytesError with limit 1000", declared, err)
		}
	}
	if got, err := Read(httptest.NewRecorder(), request(strings.NewReader(body[:1000]), 1000), 1000); err != nil || len(got) != 1000 {
		t.Errorf("body exactly at the limit: %d bytes, err %v; want 1000 bytes", len(got), err)
	}
}
