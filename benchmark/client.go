package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"time"
)

// A minimal HTTP/1.1 client over one keep-alive TCP connection. The load
// generator shares two cores with the daemon it measures, so the client
// must be cheap and must time exactly "request written → last body byte
// read": requests are pre-rendered byte slices, replies are parsed in
// place, and bodies are checksummed as they stream past without being
// kept (unless the caller asks for them).

// replyTimeout is the latency limit: a reply slower than this is a failure.
const replyTimeout = 5 * time.Second

// reply is one parsed response.
type reply struct {
	status  int
	source  string // X-CBFWW-Source
	version int    // X-CBFWW-Version (0 when absent)
	sum     bodySum
	body    []byte // kept only when asked for
}

// wireConn is one client connection.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialWire(addr string) (*wireConn, error) {
	w := &wireConn{addr: addr, buf: make([]byte, 64<<10)}
	if err := w.redial(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wireConn) redial() error {
	if w.c != nil {
		w.c.Close()
	}
	c, err := net.DialTimeout("tcp", w.addr, replyTimeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", w.addr, err)
	}
	w.c = c
	w.br = bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
	}
}

// oneShot sends a single request over a connection of its own and keeps
// the reply body: the harness's control requests (/healthz, /stats,
// /admin/resize).
func oneShot(addr, method, target string, body []byte) (reply, error) {
	c, err := dialWire(addr)
	if err != nil {
		return reply{}, err
	}
	defer c.close()
	r, err := c.do(renderRequest(method, target, body), false, true)
	if err != nil {
		return r, fmt.Errorf("%s %s: %w", method, target, err)
	}
	if r.status != 200 {
		return r, fmt.Errorf("%s %s: status %d: %s", method, target, r.status, r.body)
	}
	return r, nil
}

// renderRequest pre-builds the bytes of one request.
func renderRequest(method, target string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, target)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: text/plain\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// do sends one pre-rendered request and reads the whole reply. After any
// error the connection is re-dialled so the next request starts clean.
func (w *wireConn) do(req []byte, head, keepBody bool) (reply, error) {
	r, err := w.exchange(req, head, keepBody)
	if err != nil {
		if derr := w.redial(); derr != nil {
			err = errors.Join(err, derr)
		}
	}
	return r, err
}

func (w *wireConn) exchange(req []byte, head, keepBody bool) (reply, error) {
	var r reply
	if err := w.c.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return r, err
	}
	if _, err := w.c.Write(req); err != nil {
		return r, err
	}
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return r, fmt.Errorf("%w: status line %q", errMalformedRep, line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, fmt.Errorf("%w: status line %q", errMalformedRep, line)
	}
	length, chunked, closeAfter := int64(-1), false, false
	for {
		line, err = w.br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return r, fmt.Errorf("%w: header %q", errMalformedRep, line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.ParseInt(string(val), 10, 64); err != nil {
				return r, fmt.Errorf("%w: content-length %q", errMalformedRep, val)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, []byte("Connection")):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		case bytes.EqualFold(key, []byte("X-CBFWW-Source")):
			r.source = string(val)
		case bytes.EqualFold(key, []byte("X-CBFWW-Version")):
			r.version, _ = strconv.Atoi(string(val))
		}
	}
	var keep *bytes.Buffer
	if keepBody {
		keep = new(bytes.Buffer)
	}
	switch {
	case head:
		r.sum.n = length
	case chunked:
		for {
			line, err = w.br.ReadSlice('\n')
			if err != nil {
				return r, err
			}
			size, perr := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if perr != nil {
				return r, fmt.Errorf("%w: chunk size %q", errMalformedRep, line)
			}
			if size == 0 {
				// Trailer section: lines until the blank one.
				for {
					if line, err = w.br.ReadSlice('\n'); err != nil {
						return r, err
					}
					if len(bytes.TrimRight(line, "\r\n")) == 0 {
						break
					}
				}
				break
			}
			if err = w.consume(size, &r.sum, keep); err != nil {
				return r, err
			}
			if _, err = w.br.Discard(2); err != nil { // CRLF after the chunk
				return r, err
			}
		}
	case length >= 0:
		if err = w.consume(length, &r.sum, keep); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("%w: neither content-length nor chunked", errMalformedRep)
	}
	if keep != nil {
		r.body = keep.Bytes()
	}
	if closeAfter {
		return r, w.redial()
	}
	return r, nil
}

// consume reads n body bytes, folding them into sum.
func (w *wireConn) consume(n int64, sum *bodySum, keep *bytes.Buffer) error {
	for n > 0 {
		chunk := w.buf
		if int64(len(chunk)) > n {
			chunk = chunk[:n]
		}
		m, err := io.ReadFull(w.br, chunk)
		sum.crc = crc32.Update(sum.crc, crc32.IEEETable, chunk[:m])
		sum.n += int64(m)
		if keep != nil {
			keep.Write(chunk[:m])
		}
		if err != nil {
			return err
		}
		n -= int64(m)
	}
	return nil
}
