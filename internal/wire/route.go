package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

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

// Batch is a POST /v1/batch body split into its graph part and its items.
// Exactly one of Hash, Graph and Blob names the graph. Items stay raw: the
// shard decodes each one, and the router re-sends them as they came.
type Batch struct {
	// Hash is the fingerprint of an earlier analyze.
	Hash string `json:"hash"`
	// Graph is the graph inline, as graph JSON.
	Graph json.RawMessage `json:"graph"`
	// Items are the edit scenarios, in request order.
	Items []json.RawMessage `json:"items"`
	// Blob is the graph as a wire blob; it aliases the body.
	Blob []byte `json:"-"`
}

// batchItems is the JSON object that follows a wire batch's blob.
type batchItems struct {
	Items []json.RawMessage `json:"items"`
}

// ParseBatch splits a batch request body. The shard and the router both
// parse with it, so a body one of them refuses, the other refuses with the
// same words.
//
// A body whose Content-Type declares the wire format is a wire blob
// immediately followed by {"items":[...]}: the blob's header states its
// size, so the two parts need no separator. Any other body is one JSON
// object with "hash" or "graph" plus "items". Either way the object carries
// no other key and only whitespace may follow it, exactly one of hash and
// graph is set, and items is not empty. The blob is sized, not decoded:
// compiling the graph is the caller's step.
func ParseBatch(contentType string, body []byte) (*Batch, error) {
	var b Batch
	if IsContentType(contentType) {
		n, err := Size(body)
		if err != nil || n > len(body) {
			return nil, errors.New("batch body must start with a wire graph blob")
		}
		var rest batchItems
		if err := DecodeObject(body[n:], &rest); err != nil {
			return nil, fmt.Errorf("parsing batch items after wire blob: %w", err)
		}
		b.Blob, b.Items = body[:n], rest.Items
	} else {
		if err := DecodeObject(body, &b); err != nil {
			return nil, fmt.Errorf("parsing batch request: %w", err)
		}
		switch {
		case b.Hash != "" && len(b.Graph) > 0:
			return nil, errors.New("set either hash or graph, not both")
		case b.Hash == "" && len(b.Graph) == 0:
			return nil, errors.New("missing graph: set hash or graph")
		}
	}
	if len(b.Items) == 0 {
		return nil, errors.New("batch has no items")
	}
	return &b, nil
}

// DecodeObject decodes one JSON value into v, refusing keys v has no field
// for and anything but whitespace after the value. It is the rule for every
// JSON request envelope: a batch here, and the shard's reschedule and job
// bodies.
func DecodeObject(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON object")
	}
	return nil
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
