package loadgen

import (
	"io"
	"net"
	"sync"
	"time"
)

// MemPipe returns the two ends of an in-memory, buffered, full-duplex
// connection: what net.Pipe would be if it had kernel socket buffers.
// Each direction holds up to capBytes in flight, so a writer can batch
// ahead of a slow reader the way TCP allows — which is the behavior the
// server's response batching and the load generator's pipelining are
// built around. Closing either end wakes all blocked readers/writers on
// both ends. Read deadlines are honored (a timed-out Read returns a
// net.Error with Timeout() true, like a socket); write deadlines are
// accepted and ignored — the buffered writes the tests issue never
// block long enough to need them.
func MemPipe(capBytes int) (net.Conn, net.Conn) {
	if capBytes <= 0 {
		capBytes = 64 << 10
	}
	ab := newPipeBuf(capBytes) // a writes, b reads
	ba := newPipeBuf(capBytes) // b writes, a reads
	a := &memConn{r: ba, w: ab, name: "mempipe-a"}
	b := &memConn{r: ab, w: ba, name: "mempipe-b"}
	return a, b
}

// pipeBuf is one direction: a bounded ring of bytes under a mutex, with
// conds for "readable" and "writable".
type pipeBuf struct {
	mu      sync.Mutex
	rd, wr  *sync.Cond
	buf     []byte
	start   int
	n       int
	closedW bool // write end closed: drained reads return EOF
	closedR bool // read end closed: writes fail immediately

	// Read-deadline support: rdDeadline is the reader's current
	// deadline (zero = none); rdTimer, created at the first deadline and
	// re-armed by every later one, wakes parked readers when it lands.
	rdDeadline time.Time
	rdTimer    *time.Timer
}

func newPipeBuf(capBytes int) *pipeBuf {
	p := &pipeBuf{buf: make([]byte, capBytes)}
	p.rd = sync.NewCond(&p.mu)
	p.wr = sync.NewCond(&p.mu)
	return p
}

func (p *pipeBuf) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for len(b) > 0 {
		for p.n == len(p.buf) && !p.closedR && !p.closedW {
			p.wr.Wait()
		}
		if p.closedR || p.closedW {
			return total, io.ErrClosedPipe
		}
		// Copy into the ring, possibly wrapping.
		for len(b) > 0 && p.n < len(p.buf) {
			i := (p.start + p.n) % len(p.buf)
			run := len(p.buf) - i
			if free := len(p.buf) - p.n; run > free {
				run = free
			}
			m := copy(p.buf[i:i+run], b)
			p.n += m
			total += m
			b = b[m:]
		}
		p.rd.Broadcast()
	}
	return total, nil
}

func (p *pipeBuf) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 {
		if p.closedW || p.closedR {
			return 0, io.EOF
		}
		if !p.rdDeadline.IsZero() && !time.Now().Before(p.rdDeadline) {
			return 0, timeoutError{}
		}
		p.rd.Wait()
	}
	total := 0
	for len(b) > 0 && p.n > 0 {
		run := len(p.buf) - p.start
		if run > p.n {
			run = p.n
		}
		m := copy(b, p.buf[p.start:p.start+run])
		p.start = (p.start + m) % len(p.buf)
		p.n -= m
		total += m
		b = b[m:]
	}
	p.wr.Broadcast()
	return total, nil
}

// setReadDeadline installs t as the reader's deadline and re-arms the
// pipe's one timer to wake parked readers when it lands (at once, for a
// deadline already past). A wake-up from a superseded deadline is
// harmless: the reader re-checks rdDeadline and parks again.
func (p *pipeBuf) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rdDeadline = t
	switch {
	case t.IsZero():
		if p.rdTimer != nil {
			p.rdTimer.Stop()
		}
	case p.rdTimer == nil:
		p.rdTimer = time.AfterFunc(time.Until(t), p.wakeReaders)
	default:
		p.rdTimer.Reset(time.Until(t))
	}
}

func (p *pipeBuf) wakeReaders() {
	p.mu.Lock()
	p.rd.Broadcast()
	p.mu.Unlock()
}

// timeoutError is the net.Error a timed-out MemPipe read returns.
type timeoutError struct{}

func (timeoutError) Error() string   { return "mempipe: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (p *pipeBuf) closeWrite() {
	p.mu.Lock()
	p.closedW = true
	p.rd.Broadcast()
	p.wr.Broadcast()
	p.mu.Unlock()
}

func (p *pipeBuf) closeRead() {
	p.mu.Lock()
	p.closedR = true
	p.rd.Broadcast()
	p.wr.Broadcast()
	p.mu.Unlock()
}

type memConn struct {
	r, w *pipeBuf
	name string
}

func (c *memConn) Read(b []byte) (int, error)  { return c.r.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.w.write(b) }

func (c *memConn) Close() error {
	c.w.closeWrite()
	c.r.closeRead()
	return nil
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

func (c *memConn) LocalAddr() net.Addr  { return memAddr(c.name) }
func (c *memConn) RemoteAddr() net.Addr { return memAddr(c.name) }
func (c *memConn) SetDeadline(t time.Time) error {
	c.r.setReadDeadline(t)
	return nil
}
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.r.setReadDeadline(t)
	return nil
}
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }
