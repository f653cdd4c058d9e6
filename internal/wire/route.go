package wire

import "strings"

// ContentType is the media type of wire-format request bodies. The
// graph-carrying endpoints accept it in place of graph JSON.
const ContentType = "application/x-mia-wire"

// IsContentType reports whether a Content-Type header value declares the
// wire format. Parameters after ';' and the spaces around the media type
// are ignored, so "application/x-mia-wire ; v=1" qualifies. The shard and
// the router both decide with this one rule: they must agree on what a
// body is before either parses it.
func IsContentType(v string) bool {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.TrimSpace(v) == ContentType
}

// RouteHeader is the HTTP header a shard-aware client may set to the
// canonical graph fingerprint of the request body. It is a routing hint for
// the multi-node tier: a router that finds it skips decoding the body to
// place the request on the ring. It is never trusted for anything beyond
// placement — every shard computes the true fingerprint from the body it
// ingests, so a wrong hint costs cache locality (the request lands on a
// shard that is not warm for the graph), never correctness.
const RouteHeader = "X-Mia-Fingerprint"

// BlobFingerprint returns the canonical graph fingerprint of a wire blob —
// the same string a JSON analyze of the equivalent graph reports — without
// compiling it. Routers use it to place wire-ingest requests whose client
// did not send RouteHeader; the blob is fully decoded and validated, so a
// malformed body fails here instead of on the shard.
func BlobFingerprint(data []byte) (string, error) {
	rg, err := Decode(data)
	if err != nil {
		return "", err
	}
	return rg.Fingerprint(), nil
}
