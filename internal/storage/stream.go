package storage

import (
	"io"
	"os"
	"strconv"
	"sync"
)

// BlobReader is a streaming handle on one stored blob. It is a positioned
// one-shot reader: Read/WriteTo consume the payload front to back, Len
// reports the total payload size (independent of how much has been read),
// and Close releases whatever the backend pinned (a segment file for the
// disk, mmap and tertiary tiers — the mmap tier's carries a mapping —
// nothing for heap).
// Callers must Close every reader, including after partial reads.
//
// The point of the interface is the io.WriterTo leg: io.Copy (and
// net/http's ResponseWriter.ReadFrom path) consult it first, so each
// backend can pick its cheapest byte-moving strategy — a single Write of
// the resident or mapped slice for heap and mmap blobs, and for the segment logs
// under the disk and tertiary tiers a window of an *os.File handed to a
// destination's ReadFrom, which a socket sends with sendfile(2). A
// segment stream falls back to a pooled-buffer pread loop when the
// destination is not an io.ReaderFrom.
// None of these allocate proportionally to the body.
type BlobReader interface {
	io.Reader
	io.WriterTo
	io.Closer
	// Len returns the total payload size in bytes, regardless of read
	// position.
	Len() int64
}

// copyBufPool holds the chunk buffers used wherever streamed bytes must
// pass through user space (segment CRC verification, reads and appends;
// body copies in the warehouse). 32KB matches io.Copy's internal default.
var copyBufPool = sync.Pool{
	New: func() any { return make([]byte, 32*1024) },
}

// CopyBuffer returns a pooled 32KB chunk buffer; release it with
// PutCopyBuffer. Exported for upper layers (warehouse, gateway) that
// stream through user space and want to share the pool.
func CopyBuffer() []byte { return copyBufPool.Get().([]byte) }

// PutCopyBuffer returns a buffer obtained from CopyBuffer to the pool.
func PutCopyBuffer(buf []byte) { copyBufPool.Put(buf) } //nolint:staticcheck // slice headers are fine here

// memReader is the heap tier's BlobReader: a cursor over the resident
// slice. WriteTo hands the remaining window to the destination in one
// Write — zero copies, zero allocations.
type memReader struct {
	data []byte
	off  int
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *memReader) WriteTo(w io.Writer) (int64, error) {
	if r.off >= len(r.data) {
		return 0, nil
	}
	n, err := w.Write(r.data[r.off:])
	r.off += n
	return int64(n), err
}

func (r *memReader) Len() int64   { return int64(len(r.data)) }
func (r *memReader) Close() error { return nil }

// mmapReader is a mapped segment log's BlobReader (the mmap tier's): the
// heap tier's cursor, over the payload window in a segment mapping — one
// Write, zero copies, flat cost from 64B to 4MB. Close releases the pin on
// the segment; a window must not be used after Close (the mapping may be
// gone).
type mmapReader struct {
	memReader
	release func() error
}

func (r *mmapReader) Close() error {
	rel := r.release
	r.release = nil
	if rel == nil {
		return nil
	}
	return rel()
}

// sectionReader is an unmapped segment log's BlobReader (the disk and
// tertiary tiers'): a pread window over the store's shared, refcounted
// segment file handle (see segFile). Open
// pins the segment; Close releases the pin, and the last release of a
// segment Compact has retired performs the deferred close. WriteTo to an
// io.ReaderFrom (a socket, via net/http) hands it the unread window on a
// private file description, so the bytes leave by sendfile; any other
// destination gets a pooled-buffer pread loop.
type sectionReader struct {
	sr      *io.SectionReader
	size    int64
	release func() error
}

func (r *sectionReader) Read(p []byte) (int, error) { return r.sr.Read(p) }

func (r *sectionReader) WriteTo(w io.Writer) (int64, error) {
	if rf, ok := w.(io.ReaderFrom); ok {
		if f, rest := r.reopen(); f != nil {
			defer f.Close()
			n, err := rf.ReadFrom(&io.LimitedReader{R: f, N: rest})
			r.sr.Seek(n, io.SeekCurrent)
			return n, err
		}
	}
	buf := CopyBuffer()
	defer PutCopyBuffer(buf)
	var written int64
	for {
		n, err := r.sr.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			written += int64(wn)
			if werr != nil {
				return written, werr
			}
			if wn < n {
				return written, io.ErrShortWrite
			}
		}
		if err == io.EOF {
			return written, nil
		}
		if err != nil {
			return written, err
		}
	}
}

// reopen opens a file description of this stream's own on the pinned
// segment, seeked to the first unread byte, and returns it with the
// unread byte count; nil when that fails. sendfile reads from the file's
// current offset, which on the shared handle concurrent streams would
// race on. The path /proc/self/fd/N still resolves after Compact has
// unlinked the segment, and the pin keeps N open while it is opened.
func (r *sectionReader) reopen() (*os.File, int64) {
	ra, base, _ := r.sr.Outer()
	pos, _ := r.sr.Seek(0, io.SeekCurrent)
	shared, ok := ra.(*os.File)
	if !ok {
		return nil, 0
	}
	rc, err := shared.SyscallConn()
	if err != nil {
		return nil, 0
	}
	var f *os.File
	rc.Control(func(fd uintptr) { f, _ = os.Open("/proc/self/fd/" + strconv.FormatUint(uint64(fd), 10)) })
	if f == nil {
		return nil, 0
	}
	if _, err := f.Seek(base+pos, io.SeekStart); err != nil {
		f.Close()
		return nil, 0
	}
	return f, r.size - pos
}

func (r *sectionReader) Len() int64 { return r.size }

func (r *sectionReader) Close() error {
	rel := r.release
	r.release = nil
	if rel == nil {
		return nil
	}
	return rel()
}

// onlyWriter hides any other methods of the wrapped writer so
// io.CopyBuffer actually uses the provided buffer.
type onlyWriter struct{ w io.Writer }

func (o onlyWriter) Write(p []byte) (int, error) { return o.w.Write(p) }
