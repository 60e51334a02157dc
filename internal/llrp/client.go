package llrp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// Client is the host side of an LLRP connection (the role the paper's
// LLRP Toolkit plays): it configures the reader, drives the ROSpec
// lifecycle, answers keepalives, and surfaces the tag report stream.
type Client struct {
	conn    net.Conn
	metrics *ClientMetrics
	// tracer samples end-to-end pipeline traces, stamping StageRead as
	// each report is decoded from its frame. Nil (the default) traces
	// nothing.
	tracer *obs.Tracer

	writeMu sync.Mutex

	// lastActivity is the wall time (UnixNano) of the last inbound
	// message — keepalive, report, or response. Session watchdogs read
	// it to declare a silent link dead.
	lastActivity atomic.Int64

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan Message
	err     error
	closed  bool

	reports chan reader.TagReport
	readWG  sync.WaitGroup
}

// Dial connects to an LLRP endpoint and waits for the reader's
// connection-accepted event notification.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialWithMetrics(addr, timeout, nil)
}

// DialWithMetrics is Dial with protocol instrumentation attached (see
// NewClientMetrics). A nil metrics value builds private, unexposed
// instruments.
func DialWithMetrics(addr string, timeout time.Duration, m *ClientMetrics) (*Client, error) {
	//tagbreathe:allow ctxflow timeout-only convenience constructor; context-threading callers use DialContextTraced
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return DialContextTraced(ctx, addr, m, nil)
}

// DialContextTraced is DialWithMetrics with cancelable connection
// setup and pipeline tracing: both the TCP dial and the reader's
// greeting handshake abort when ctx ends, and the client stamps
// obs.StageRead on sampled reports as they are decoded. The returned
// client's lifetime is independent of ctx — cancel after setup does
// not tear the connection down; use Close for that. A nil tracer
// traces nothing.
func DialContextTraced(ctx context.Context, addr string, m *ClientMetrics, tr *obs.Tracer) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("llrp: dial %s: %w", addr, err)
	}
	// The handshake below is a blocking read; closing the socket is the
	// only way to abort it when ctx ends first.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	c, err := NewClientTraced(conn, m, tr)
	if !stop() && err != nil {
		// The AfterFunc already ran: ctx ended mid-handshake, and the
		// read error is just the closed socket. Surface the cause.
		return nil, fmt.Errorf("llrp: dial %s: %w", addr, context.Cause(ctx))
	}
	return c, err
}

// NewClientTraced wraps an established connection and performs the
// connection handshake, with protocol instrumentation (nil m builds
// private, unexposed instruments) and pipeline tracing (nil tr traces
// nothing).
func NewClientTraced(conn net.Conn, m *ClientMetrics, tr *obs.Tracer) (*Client, error) {
	if m == nil {
		m = NewClientMetrics(nil)
	}
	c := &Client{
		conn:    conn,
		metrics: m,
		tracer:  tr,
		nextID:  1,
		pending: make(map[uint32]chan Message),
		reports: make(chan reader.TagReport, 1024),
	}
	// The reader speaks first: a ReaderEventNotification announcing
	// the connection attempt result.
	hello, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("llrp: waiting for reader event: %w", err)
	}
	if hello.Type != MsgReaderEventNotification {
		conn.Close()
		return nil, fmt.Errorf("llrp: expected READER_EVENT_NOTIFICATION, got %v", hello.Type)
	}
	c.lastActivity.Store(time.Now().UnixNano())
	c.readWG.Add(1)
	go c.readLoop()
	return c, nil
}

// LastActivity returns the wall time of the last inbound message on
// this connection (keepalive, tag report, or response). A link that is
// nominally open but silent past the reader's keepalive period is
// wedged; Session's watchdog uses this to declare it dead.
func (c *Client) LastActivity() time.Time {
	return time.Unix(0, c.lastActivity.Load())
}

// Reports returns the stream of decoded tag reports. The channel is
// closed when the connection ends.
func (c *Client) Reports() <-chan reader.TagReport {
	return c.reports
}

// Err reports why the read loop ended (nil while healthy or after a
// clean close).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(c.err, io.EOF) || errors.Is(c.err, net.ErrClosed) {
		return nil
	}
	return c.err
}

// Close sends CLOSE_CONNECTION (best effort) and tears down. It is
// idempotent: every call after the first is a no-op returning nil, and
// concurrent calls are safe (later callers wait for the read loop to
// unwind too).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.readWG.Wait()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	// Best-effort polite close; the reader may already be gone, and a
	// stalled peer must not be able to wedge Close on a full socket
	// buffer — bound the farewell write.
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = c.send(Message{Type: MsgCloseConnection, ID: c.allocID()})
	err := c.conn.Close()
	c.readWG.Wait()
	return err
}

func (c *Client) allocID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

func (c *Client) send(m Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := WriteMessage(c.conn, m); err != nil {
		c.metrics.Errors.With("send").Inc()
		return err
	}
	return nil
}

// request sends a message and waits for the response with the same
// message ID, with a timeout guarding against a wedged peer.
func (c *Client) request(t MessageType, payload []byte, timeout time.Duration) (Message, error) {
	c.metrics.Requests.With(t.String()).Inc()
	id := c.allocID()
	ch := make(chan Message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Message{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	if err := c.send(Message{Type: t, ID: id, Payload: payload}); err != nil {
		return Message{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return Message{}, fmt.Errorf("llrp: connection closed awaiting %v response", t)
		}
		return resp, nil
	case <-timer.C:
		return Message{}, fmt.Errorf("llrp: timeout awaiting %v response", t)
	}
}

// requestStatus performs a request and checks the LLRPStatus result.
func (c *Client) requestStatus(t MessageType, payload []byte, timeout time.Duration) error {
	resp, err := c.request(t, payload, timeout)
	if err != nil {
		return err
	}
	code, desc, err := DecodeStatus(resp.Payload)
	if err != nil {
		return err
	}
	if code != StatusSuccess {
		return fmt.Errorf("llrp: %v failed: %v (%s)", t, code, desc)
	}
	return nil
}

const defaultRequestTimeout = 10 * time.Second

// SetReaderConfig applies reader configuration (the emulator accepts
// and acknowledges; the call exists for protocol completeness and
// fault injection in tests).
func (c *Client) SetReaderConfig() error {
	return c.requestStatus(MsgSetReaderConfig, nil, defaultRequestTimeout)
}

// ReaderCapabilities queries the reader's identity and dimensions
// (GET_READER_CAPABILITIES), the first call a host typically makes.
func (c *Client) ReaderCapabilities() (Capabilities, error) {
	resp, err := c.request(MsgGetReaderCapabilities, nil, defaultRequestTimeout)
	if err != nil {
		return Capabilities{}, err
	}
	code, desc, err := DecodeStatus(resp.Payload)
	if err != nil {
		return Capabilities{}, err
	}
	if code != StatusSuccess {
		return Capabilities{}, fmt.Errorf("llrp: GET_READER_CAPABILITIES failed: %v (%s)", code, desc)
	}
	return DecodeCapabilities(resp.Payload)
}

// AddROSpec registers a reader operation spec.
func (c *Client) AddROSpec(cfg ROSpecConfig) error {
	return c.requestStatus(MsgAddROSpec, EncodeROSpec(cfg), defaultRequestTimeout)
}

// EnableROSpec enables a registered ROSpec.
func (c *Client) EnableROSpec(id uint32) error {
	return c.requestStatus(MsgEnableROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// StartROSpec starts a registered, enabled ROSpec; tag reports begin
// arriving on Reports.
func (c *Client) StartROSpec(id uint32) error {
	return c.requestStatus(MsgStartROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// StopROSpec stops a running ROSpec.
func (c *Client) StopROSpec(id uint32) error {
	return c.requestStatus(MsgStopROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// DeleteROSpec removes an ROSpec, stopping it if running.
func (c *Client) DeleteROSpec(id uint32) error {
	return c.requestStatus(MsgDeleteROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// readLoop dispatches inbound messages: responses to waiters, tag
// reports to the report channel, keepalives to automatic acks.
func (c *Client) readLoop() {
	defer c.readWG.Done()
	defer close(c.reports)
	for {
		m, err := ReadMessage(c.conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.metrics.Errors.With("read").Inc()
			}
			c.mu.Lock()
			c.err = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.lastActivity.Store(time.Now().UnixNano())
		switch m.Type {
		case MsgROAccessReport:
			reports, derr := DecodeTagReports(m.Payload)
			if derr != nil {
				c.metrics.Errors.With("decode").Inc()
				c.mu.Lock()
				c.err = derr
				c.mu.Unlock()
				return
			}
			c.metrics.Reports.Add(uint64(len(reports)))
			for i := range reports {
				// The read stamp lands here, as close to the socket as the
				// decoded report exists, so downstream stages inherit the
				// reader-side origin instead of re-stamping on ingest.
				reports[i].TraceID = c.tracer.Begin(obs.StageRead)
				c.reports <- reports[i]
			}
		case MsgKeepalive:
			// LLRP requires the client to acknowledge keepalives or
			// the reader drops the connection.
			c.metrics.Keepalives.Inc()
			if err := c.send(Message{Type: MsgKeepaliveAck, ID: m.ID}); err != nil {
				c.mu.Lock()
				c.err = err
				c.mu.Unlock()
				return
			}
		case MsgReaderEventNotification:
			// Informational; ignore.
		default:
			c.mu.Lock()
			ch, ok := c.pending[m.ID]
			c.mu.Unlock()
			if ok {
				ch <- m
			}
		}
	}
}
