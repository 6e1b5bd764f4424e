package ctlapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"syscall"
	"time"
)

// Client talks to a trackd control API.
type Client struct {
	// Base is the API root, e.g. "http://127.0.0.1:7070".
	Base string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retries is how many extra attempts to make when the control port
	// refuses the connection — the node is restarting or not yet up
	// (default 0: fail fast). Only connection-refused dials retry;
	// HTTP errors and timeouts are returned immediately.
	Retries int
	// RetryBackoff is the base wait between attempts, growing linearly:
	// backoff, 2·backoff, ... (default 200ms).
	RetryBackoff time.Duration
	// Sleep replaces time.Sleep between retries; tests inject it.
	Sleep func(time.Duration)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues the request, retrying refused connections per the client's
// retry policy, and finishes the response. The request closure is
// re-invoked on each attempt so bodies are rebuilt rather than re-read.
func (c *Client) do(out any, req func() (*http.Response, error)) error {
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 0; ; attempt++ {
		resp, err := req()
		if err == nil {
			return finish(resp, out)
		}
		if attempt >= c.Retries || !errors.Is(err, syscall.ECONNREFUSED) {
			return err
		}
		sleep(time.Duration(attempt+1) * backoff)
	}
}

const (
	// errTextLimit is how much of an error reply's body goes into the
	// returned error.
	errTextLimit = 4096
	// drainLimit is how much unread body finish reads through to keep
	// the connection; past it, dialing again is cheaper than reading.
	drainLimit = 256 << 10
)

// finish consumes resp: a status of 300 or above becomes an error
// carrying the head of the body, otherwise out (when non-nil) is decoded
// from it. Whatever is left is then read to EOF before Close, because
// net/http puts a connection back in its idle pool only once the
// response on it has been read through — a body closed early costs the
// next call a dial, and the server an accept and a goroutine.
func finish(resp *http.Response, out any) error {
	defer func() {
		// A drain that fails or stops at the limit costs only the connection.
		_, _ = io.CopyN(io.Discard, resp.Body, drainLimit)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, errTextLimit))
		if resp.StatusCode == http.StatusNotFound {
			return fmt.Errorf("%w (%s)", ErrNotTracked, bytes.TrimSpace(b))
		}
		return fmt.Errorf("ctlapi: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// post sends in as a JSON body (nil for an empty one) to path and
// decodes the reply into out (nil to ignore it).
func (c *Client) post(path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.do(out, func() (*http.Response, error) {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		return c.http().Post(c.Base+path, "application/json", r)
	})
}

func (c *Client) getJSON(path string, out any) error {
	return c.do(out, func() (*http.Response, error) {
		return c.http().Get(c.Base + path)
	})
}

// Observe ingests a capture event stamped now.
func (c *Client) Observe(object string) error {
	return c.ObserveAt(object, time.Time{})
}

// ObserveAt ingests a capture event with an explicit timestamp (zero =
// server time).
func (c *Client) ObserveAt(object string, at time.Time) error {
	return c.post("/observe", ObserveRequest{Object: object, At: at}, nil)
}

// Locate answers L(o, t); zero time means "now".
func (c *Client) Locate(object string, at time.Time) (LocateResponse, error) {
	var out LocateResponse
	return out, c.getJSON("/locate?object="+url.QueryEscape(object)+timeParam("at", at), &out)
}

// Trace returns the object's full trajectory.
func (c *Client) Trace(object string) (TraceResponse, error) {
	var out TraceResponse
	return out, c.getJSON("/trace?object="+url.QueryEscape(object), &out)
}

// TraceBetween returns the trajectory within [from, to].
func (c *Client) TraceBetween(object string, from, to time.Time) (TraceResponse, error) {
	var out TraceResponse
	return out, c.getJSON("/trace?object="+url.QueryEscape(object)+timeParam("from", from)+timeParam("to", to), &out)
}

// timeParam is "&name=<t>" for a non-zero t and empty otherwise.
func timeParam(name string, t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return "&" + name + "=" + url.QueryEscape(t.Format(time.RFC3339Nano))
}

// ResolveTrace returns the trajectory including containment.
func (c *Client) ResolveTrace(object string) (TraceResponse, error) {
	var out TraceResponse
	return out, c.getJSON("/trace?resolve=true&object="+url.QueryEscape(object), &out)
}

// Pack records an aggregation event at the node.
func (c *Client) Pack(parent string, children []string) error {
	return c.post("/pack", PackRequest{Parent: parent, Children: children}, nil)
}

// Unpack records a disaggregation event at the node.
func (c *Client) Unpack(parent string, children []string) error {
	return c.post("/pack", PackRequest{Parent: parent, Children: children, Unpack: true}, nil)
}

// Predict returns the movement forecast.
func (c *Client) Predict(object string) (Forecast, error) {
	var out Forecast
	return out, c.getJSON("/predict?object="+url.QueryEscape(object), &out)
}

// Inventory returns the node's current holdings.
func (c *Client) Inventory() (InventoryResponse, error) {
	var out InventoryResponse
	return out, c.getJSON("/inventory", &out)
}

// Status returns node identity and storage counters.
func (c *Client) Status() (StatusResponse, error) {
	var out StatusResponse
	return out, c.getJSON("/status", &out)
}

// Snapshot asks the node to persist its state.
func (c *Client) Snapshot() (SnapshotResponse, error) {
	var out SnapshotResponse
	return out, c.post("/snapshot", nil, &out)
}
