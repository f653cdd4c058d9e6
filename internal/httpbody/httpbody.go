// Package httpbody reads whole request bodies for the serving tier. The
// router needs a request's exact bytes to fingerprint and forward them, and
// a shard needs them to compile the graph; both read through Read, so a
// body costs one presized buffer per hop instead of io.ReadAll's regrowth
// from 512 bytes.
package httpbody

import (
	"io"
	"net/http"
)

// presizeCap bounds the buffer Read allocates from a declared
// Content-Length before any byte has arrived. A declared length is only the
// client's claim: a client that declares the whole limit and then stalls
// must not get the whole limit allocated. Beyond the cap the buffer grows
// as bytes arrive.
const presizeCap = 1 << 20

// Read reads r's body whole, bounded by limit bytes exactly as
// http.MaxBytesReader(w, r.Body, limit) bounds it: a longer body fails with
// its error ("http: request body too large"). The buffer starts at the
// declared Content-Length, capped at 1 MiB, so a body up to the cap whose
// length is declared truthfully is read into one allocation. A body of
// unknown length starts at 512 bytes, as with io.ReadAll.
func Read(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n > 0 {
		// One byte past the declared length leaves room for the read that
		// reports EOF, so an exact body never regrows.
		size = min(n, limit, presizeCap-1) + 1
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	b := make([]byte, 0, size)
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // full: let append pick the next size
		}
	}
}
